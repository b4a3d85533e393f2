// Package histcheck records concurrent operation histories and checks
// them for linearizability against the per-key register model.
//
// The fleet's consistency experiment wraps every client operation in a
// Recorder Begin/End pair, stamping invocation and response with the
// shared virtual clock. After the run, Check partitions the history by
// key (operations on different keys commute in a register store, so
// per-key linearizability of the whole history follows from per-key
// sub-histories — the standard locality argument) and runs a
// Wing–Gong/Lowe-style depth-first search over linearization orders,
// memoized on the (completed-operations bitmask, register state) pair.
// Sub-histories are capped at 64 operations so the bitmask fits one
// word; the experiment sizes its workload to stay under the cap.
//
// Failed operations need care: a write whose fleet op failed (timeout,
// partial write) may or may not have taken effect, so it becomes an
// "optional" op — the search may linearize it anywhere after its
// invocation or drop it entirely. A failed read carries no information
// and is discarded.
package histcheck

import (
	"math"

	"herdkv/internal/kv"
	"herdkv/internal/sim"
	"herdkv/internal/telemetry"
)

// Kind distinguishes register reads from writes.
type Kind int

// Operation kinds.
const (
	// Read observes the register (Value 0 = absent).
	Read Kind = iota
	// Write sets the register (Value 0 = delete / absent).
	Write
)

// pendingReturn marks an operation that never returned: it stays
// concurrent with everything after its invocation.
const pendingReturn = sim.Time(math.MaxInt64)

// Op is one recorded operation on one key.
type Op struct {
	Key    kv.Key
	Kind   Kind
	Value  uint64   // value written, or value a successful read observed
	Invoke sim.Time // invocation instant
	Return sim.Time // response instant; pendingReturn if none
	Failed bool     // the operation resolved with an error (or never resolved)
}

// Recorder accumulates a history. It is driven from simulation
// callbacks on one goroutine, like everything else in the model — no
// locking.
type Recorder struct {
	ops []Op

	telOps *telemetry.Counter
}

// SetTelemetry attaches counters (histcheck.ops) to a sink; without it
// the recorder just stays silent.
func (r *Recorder) SetTelemetry(tel *telemetry.Sink) {
	r.telOps = tel.Counter("histcheck.ops")
}

// begin appends an operation in the failed state; End*/complete flip it.
func (r *Recorder) begin(key kv.Key, kind Kind, value uint64, at sim.Time) int {
	r.ops = append(r.ops, Op{
		Key: key, Kind: kind, Value: value,
		Invoke: at, Return: pendingReturn, Failed: true,
	})
	if r.telOps != nil {
		r.telOps.Inc()
	}
	return len(r.ops) - 1
}

// BeginRead records a read invocation and returns its op id.
func (r *Recorder) BeginRead(key kv.Key, at sim.Time) int {
	return r.begin(key, Read, 0, at)
}

// BeginWrite records a write invocation (value 0 = delete) and returns
// its op id.
func (r *Recorder) BeginWrite(key kv.Key, value uint64, at sim.Time) int {
	return r.begin(key, Write, value, at)
}

// EndRead completes a read with the value it observed (0 = miss).
func (r *Recorder) EndRead(id int, value uint64, at sim.Time) {
	r.ops[id].Value = value
	r.ops[id].Return = at
	r.ops[id].Failed = false
}

// EndWrite completes a write successfully.
func (r *Recorder) EndWrite(id int, at sim.Time) {
	r.ops[id].Return = at
	r.ops[id].Failed = false
}

// Fail marks an operation as resolved-with-error at the given instant.
// The op stays in the history as indeterminate: a failed write may
// still have taken effect on some replica. Its Return stays pending —
// the effect can surface arbitrarily late.
func (r *Recorder) Fail(id int) {
	r.ops[id].Failed = true
}

// Ops returns the recorded history (live slice; callers must not
// mutate).
func (r *Recorder) Ops() []Op { return r.ops }
