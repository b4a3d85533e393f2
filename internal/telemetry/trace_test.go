package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"herdkv/internal/sim"
)

func TestTraceContiguousSpans(t *testing.T) {
	tr := NewTracer()
	g := tr.Start("GET", 100)
	g.SetPrefix("req.")
	g.Mark("pio", 250)
	g.Mark("wire", 900)
	g.SetPrefix("")
	g.Mark("cpu", 1000)

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	wantNames := []string{"req.pio", "req.wire", "cpu"}
	var sum sim.Time
	for i, s := range spans {
		if s.Name != wantNames[i] {
			t.Fatalf("span %d named %q, want %q", i, s.Name, wantNames[i])
		}
		if s.TraceID != g.id || s.Trace != "GET" {
			t.Fatalf("span %d misattributed: %+v", i, s)
		}
		sum += s.Duration()
	}
	// Contiguity: spans partition [start, end] with no gaps.
	if spans[0].Start != 100 || spans[2].End != 1000 {
		t.Fatalf("trace bounds [%d, %d], want [100, 1000]", spans[0].Start, spans[2].End)
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Start != spans[i-1].End {
			t.Fatalf("gap between span %d and %d", i-1, i)
		}
	}
	if sum != 900 {
		t.Fatalf("durations sum to %d, want 900", sum)
	}
}

func TestTraceOutOfOrderMarkClamps(t *testing.T) {
	tr := NewTracer()
	g := tr.Start("X", 100)
	g.Mark("a", 200)
	g.Mark("b", 150) // out of order: must record a zero-length span, not negative
	s := tr.Spans()[1]
	if s.Duration() != 0 || s.End != 150 {
		t.Fatalf("out-of-order span = %+v, want zero-length at 150", s)
	}
}

// TestTraceOutOfOrderMarkKeepsPartition checks that an out-of-order mark
// does not rewind the trace: the next span starts where the latest one
// ended, so the spans still sum to the request's latency.
func TestTraceOutOfOrderMarkKeepsPartition(t *testing.T) {
	tr := NewTracer()
	g := tr.Start("X", 5)
	g.Mark("a", 10)
	g.Mark("b", 8)
	g.Mark("c", 12)
	var sum sim.Time
	for _, s := range tr.Spans() {
		sum += s.Duration()
	}
	if sum != 12-5 {
		t.Fatalf("spans %+v sum to %d, want %d", tr.Spans(), sum, 12-5)
	}
	if c := tr.Spans()[2]; c.Start != 10 {
		t.Fatalf("span after the out-of-order mark = %+v, want it to start at 10", c)
	}
}

func TestTracerSpansSince(t *testing.T) {
	tr := NewTracer()
	a := tr.Start("A", 0)
	a.Mark("x", 10)
	n := tr.SpanCount()
	b := tr.Start("B", 20)
	b.Mark("y", 30)
	since := tr.SpansSince(n)
	if len(since) != 1 || since[0].Trace != "B" {
		t.Fatalf("SpansSince(%d) = %+v, want just B's span", n, since)
	}
	if got := tr.SpansSince(99); got != nil {
		t.Fatalf("SpansSince past end = %+v, want nil", got)
	}
}

func TestNilSafety(t *testing.T) {
	// Every handle must be a no-op when nil: this is the "un-instrumented
	// runs pay ~nothing" contract.
	var s *Sink
	if s.Counter("x") != nil || s.Gauge("x") != nil || s.Histogram("x") != nil {
		t.Fatal("nil sink must hand out nil metric handles")
	}
	if s.Tracing() || s.QPScoped() {
		t.Fatal("nil sink must report disabled")
	}
	tr := s.StartTrace("op", 0)
	if tr != nil {
		t.Fatal("nil sink must hand out nil traces")
	}
	tr.SetPrefix("req.")
	tr.Mark("pio", 10)

	var c *Counter
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter must stay zero")
	}
	var g *Gauge
	g.Set(5)
	g.Add(1)
	if g.Value() != 0 || g.Max() != 0 {
		t.Fatal("nil gauge must stay zero")
	}

	var tcr *Tracer
	if tcr.Start("x", 0) != nil || tcr.Spans() != nil || tcr.SpanCount() != 0 {
		t.Fatal("nil tracer must be inert")
	}

	var reg *Registry
	if reg.Counter("x") != nil || reg.Gauge("x") != nil || reg.Histogram("x") != nil {
		t.Fatal("nil registry must hand out nil handles")
	}

	// Sink with only a registry: traces off, metrics on.
	ms := New()
	if ms.Tracing() {
		t.Fatal("registry-only sink should not trace")
	}
	ms.Counter("a").Inc()
	if ms.Counter("a").Value() != 1 {
		t.Fatal("counter lost its increment")
	}
}

func TestRegistrySharedHandles(t *testing.T) {
	r := NewRegistry()
	if r.Counter("n") != r.Counter("n") {
		t.Fatal("same name must return the same counter")
	}
	r.Counter("n").Add(2)
	r.Counter("n").Add(3)
	if r.Counter("n").Value() != 5 {
		t.Fatal("shared counter must aggregate")
	}
	g := r.Gauge("depth")
	g.Set(10)
	g.Set(4)
	if g.Value() != 4 || g.Max() != 10 {
		t.Fatalf("gauge cur=%d max=%d, want 4/10", g.Value(), g.Max())
	}
}

// TestCounterTrack checks that a named counter reads its own
// increments plus every tracked cell, that Track on a nil counter is a
// no-op, and that the dump prints the sum.
func TestCounterTrack(t *testing.T) {
	r := NewRegistry()
	named := r.Counter("herd.retries")
	a, b := new(Counter), new(Counter)
	named.Track(a)
	named.Track(b)
	named.Add(1)
	a.Add(2)
	b.Add(4)
	if got := named.Value(); got != 7 {
		t.Fatalf("named counter = %d, want 1 own + 2 + 4 tracked = 7", got)
	}
	if a.Value() != 2 || b.Value() != 4 {
		t.Fatalf("cells read %d and %d, want 2 and 4", a.Value(), b.Value())
	}

	var off *Counter
	off.Track(a)
	if off.Value() != 0 {
		t.Fatal("a nil counter must ignore Track")
	}

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "counter herd.retries 7\n"; got != want {
		t.Fatalf("dump = %q, want %q", got, want)
	}
}

func TestRegistryWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.two").Add(2)
	r.Counter("a.one").Add(1)
	r.Gauge("g").Set(3)
	r.Histogram("lat").RecordTime(2 * sim.Microsecond)
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	wantLines := []string{
		"counter a.one 1",
		"counter b.two 2",
		"gauge   g cur=3 max=3",
		"hist    lat_us count=1 min=2.00 mean=2.00 p50=2.00 p95=2.00 p99=2.00 max=2.00",
	}
	for _, w := range wantLines {
		if !strings.Contains(got, w) {
			t.Fatalf("dump missing %q:\n%s", w, got)
		}
	}
	// Counters must be sorted.
	if strings.Index(got, "a.one") > strings.Index(got, "b.two") {
		t.Fatal("counters not sorted")
	}
}

// TestChromeTraceGolden pins the exporter's exact output, and checks it
// is valid JSON of the trace_event object form.
func TestChromeTraceGolden(t *testing.T) {
	tr := NewTracer()
	g := tr.Start("GET", 1_000_000) // 1 us
	g.Mark("pio", 1_500_000)        // 0.5 us stage
	g.Mark("wire", 3_000_000)       // 1.5 us stage

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"traceEvents":[` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"GET"}},` +
		`{"name":"pio","cat":"GET","ph":"X","ts":1,"dur":0.5,"pid":1,"tid":1},` +
		`{"name":"wire","cat":"GET","ph":"X","ts":1.5,"dur":1.5,"pid":1,"tid":1}` +
		`],"displayTimeUnit":"ns"}` + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("chrome trace drifted:\ngot  %s\nwant %s", got, want)
	}

	// And it must round-trip as the trace_event JSON object form.
	var parsed struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(parsed.TraceEvents) != 3 {
		t.Fatalf("got %d events, want 3", len(parsed.TraceEvents))
	}
	for _, ev := range parsed.TraceEvents[1:] {
		for _, key := range []string{"name", "ph", "ts", "dur", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event missing %q: %v", key, ev)
			}
		}
	}

	// An empty tracer still produces a valid document.
	buf.Reset()
	if err := NewTracer().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"traceEvents":[]`) {
		t.Fatalf("empty trace malformed: %s", buf.String())
	}
}
