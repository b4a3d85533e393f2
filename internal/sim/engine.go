// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock (picosecond resolution) through a
// priority queue of events. Everything in the RDMA model — PCIe transfers,
// NIC processing, wire serialization, CPU service — is expressed as events
// and resources on a single engine, so experiment runs are exactly
// reproducible for a given seed and parameter set.
//
// The per-event path is allocation-free: the queue is a typed 4-ary heap
// of event values, and a multi-stage flow can schedule a pooled,
// pointer-typed stage record (a Handler) instead of a fresh closure per
// stage.
package sim

// Time is a point in virtual time, in picoseconds. Picosecond resolution
// keeps sub-nanosecond service times (e.g. 28.6 ns per inbound WRITE at
// 35 Mops) exact over billions of operations.
type Time int64

// Duration constants for virtual time.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Nanoseconds reports t as a float64 nanosecond count.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds reports t as a float64 microsecond count.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Seconds reports t as a float64 second count.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// NS converts a nanosecond count to a Time.
func NS(ns float64) Time { return Time(ns * float64(Nanosecond)) }

// Handler is a scheduled callback that receives the time it fires at.
// Multi-stage flows (a PCIe transaction, a packet crossing the fabric, a
// verb moving through the NIC) implement it on a pooled, pointer-typed
// record that carries its current stage: scheduling the record costs no
// allocation, where a closure per stage would cost one. A record
// schedules the same events at the same points a closure chain would,
// and returns to its pool exactly once, at its last stage.
type Handler interface {
	Fire(at Time)
}

// completion adapts a Server.Submit callback, and thunk an At/After
// callback (which ignores the firing time), to a Handler. Func values
// are pointer-shaped, so neither conversion allocates.
type (
	completion func(at Time)
	thunk      func()
)

func (f completion) Fire(at Time) { f(at) }
func (f thunk) Fire(Time)         { f() }

type event struct {
	at  Time
	seq uint64 // FIFO tie-break for events at the same instant
	h   Handler
}

// before orders events by (at, seq). seq is unique, so the order is
// total and any correct heap pops events in exactly the same sequence.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a single-threaded discrete-event scheduler. The zero value is
// ready to use. Engines are not safe for concurrent use; the entire model
// runs on one goroutine.
type Engine struct {
	now Time
	q   []event // 4-ary min-heap on (at, seq)
	seq uint64
	ran uint64
}

// push inserts ev, sifting it up from the new last slot.
//
//herd:hotpath
func (e *Engine) push(ev event) {
	e.q = append(e.q, ev)
	q := e.q
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !ev.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
}

// pop removes and returns the earliest event. The vacated last slot is
// zeroed so a finished callback is not kept reachable by the backing
// array.
//
//herd:hotpath
func (e *Engine) pop() event {
	q := e.q
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{}
	q = q[:n]
	e.q = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if q[j].before(&q[m]) {
				m = j
			}
		}
		if !q[m].before(&last) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = last
	return top
}

// New returns a fresh engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed reports how many events have run so far.
func (e *Engine) Processed() uint64 { return e.ran }

// Pending reports how many events are scheduled but not yet run.
func (e *Engine) Pending() int { return len(e.q) }

// At schedules fn to run at absolute time t. Scheduling in the past
// (t < Now) runs the event at the current time instead; events at equal
// times run in scheduling order.
//
//herd:hotpath
func (e *Engine) At(t Time, fn func()) { e.AtHandler(t, thunk(fn)) }

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) { e.AtHandler(e.now+d, thunk(fn)) }

// AtHandler schedules h.Fire at absolute time t, with At's clamping and
// tie-break rules.
//
//herd:hotpath
func (e *Engine) AtHandler(t Time, h Handler) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.push(event{at: t, seq: e.seq, h: h})
}

// AfterHandler schedules h.Fire d after the current time.
func (e *Engine) AfterHandler(d Time, h Handler) { e.AtHandler(e.now+d, h) }

// Step runs the earliest pending event, advancing the clock to it.
// It reports whether an event was run.
//
//herd:hotpath
func (e *Engine) Step() bool {
	if len(e.q) == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.at
	e.ran++
	ev.h.Fire(ev.at)
	return true
}

// Run executes events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then sets the
// clock to deadline. Events scheduled beyond the deadline stay pending.
func (e *Engine) RunUntil(deadline Time) {
	for len(e.q) > 0 && e.q[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunFor executes events for d of virtual time from the current instant.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }
