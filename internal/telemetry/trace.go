package telemetry

import "herdkv/internal/sim"

// Span is one contiguous stage of a traced request: [Start, End) in
// virtual time. Spans of one trace are contiguous by construction (each
// Mark closes the stage that began at the previous mark), so their
// durations sum to the trace's end-to-end latency exactly.
type Span struct {
	TraceID uint64   // groups the spans of one request
	Trace   string   // the request name, e.g. "GET"
	Name    string   // the stage name, e.g. "req.pio"
	Start   sim.Time // when the stage began (the previous mark)
	End     sim.Time // when the stage completed (this mark)
}

// Duration returns the span's length.
func (s Span) Duration() sim.Time { return s.End - s.Start }

// Tracer records request-lifecycle spans. Like the Registry it is
// single-threaded and keyed entirely to virtual time: recording a span
// never schedules a simulation event, so tracing cannot perturb a run.
type Tracer struct {
	spans  []Span
	nextID uint64
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Start begins a new trace named name (e.g. "GET") whose first stage
// opens at virtual time at. A nil Tracer returns a nil (no-op) Trace.
func (t *Tracer) Start(name string, at sim.Time) *Trace {
	if t == nil {
		return nil
	}
	t.nextID++
	return &Trace{tr: t, id: t.nextID, name: name, start: at, last: at}
}

// Spans returns every recorded span in recording order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// SpanCount returns how many spans have been recorded; together with
// SpansSince it lets an experiment slice out only its own activity from
// a shared tracer.
func (t *Tracer) SpanCount() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// SpansSince returns the spans recorded at or after index n.
func (t *Tracer) SpansSince(n int) []Span {
	if t == nil || n >= len(t.spans) {
		return nil
	}
	if n < 0 {
		n = 0
	}
	return t.spans[n:]
}

// Trace is one request's lifecycle recorder. Layers along the request
// path call Mark at each stage boundary; the stage's span covers the
// time since the previous mark, so a trace is a gap-free partition of
// the request's latency. A nil *Trace is a valid no-op, which is how
// un-traced operations skip all recording.
type Trace struct {
	tr     *Tracer
	id     uint64
	name   string
	prefix string
	start  sim.Time
	last   sim.Time
}

// SetPrefix prepends p to subsequent stage names. The HERD layers use it
// to distinguish the two network legs ("req." vs "resp.") while the
// verbs layer marks generic stage names ("pio", "wire", ...).
func (t *Trace) SetPrefix(p string) {
	if t == nil {
		return
	}
	t.prefix = p
}

// Mark closes the current stage at virtual time at, recording a span
// named prefix+stage that began at the previous mark (or the trace
// start). Marks must be issued in virtual-time order along the request
// path; an out-of-order mark records a zero-length span rather than a
// negative one and leaves the previous mark in place, so the next span
// still starts where the last one ended.
func (t *Trace) Mark(stage string, at sim.Time) {
	if t == nil {
		return
	}
	start := min(t.last, at)
	t.tr.spans = append(t.tr.spans, Span{
		TraceID: t.id, Trace: t.name, Name: t.prefix + stage, Start: start, End: at,
	})
	t.last = max(t.last, at)
}
