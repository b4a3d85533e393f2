// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock (picosecond resolution) through a
// priority queue of events. Everything in the RDMA model — PCIe transfers,
// NIC processing, wire serialization, CPU service — is expressed as events
// and resources on a single engine, so experiment runs are exactly
// reproducible for a given seed and parameter set.
//
// Events run in (at, seq) order: by time, and at one instant in the
// order they were scheduled. The queue splits the event horizon into
// three tiers that together pop exactly that order: a FIFO for events
// scheduled at the current instant, a calendar (a ring of 256 buckets,
// each 2^12 ps wide, about 1 µs in all) for near events, and a 4-ary
// heap for far ones such as retry, flush and lease timers. A model run
// keeps most of its pending events in far timers, so the events it
// runs most never sift through them.
//
// The per-event path is allocation-free: each tier's storage is reused
// once grown, and a multi-stage flow can schedule a pooled,
// pointer-typed stage record (a Handler) instead of a fresh closure per
// stage.
package sim

import "math/bits"

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

// event is one far-heap entry.
type event struct {
	at  Time
	seq uint64 // scheduling order: the tie-break at one instant
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

// entry is one calendar event. It needs no seq: the calendar keeps
// events at one instant in scheduling order.
type entry struct {
	at Time
	h  Handler
}

// The queue has three tiers, each holding events in a different span of
// the event horizon. An event scheduled at the current instant goes to
// a FIFO (now). One due within horizon goes to a ring of buckets
// (calendar). Anything later goes to a 4-ary heap (far): retry, flush
// and lease timers.
//
// The engine runs events in (at, seq) order, seq being the order they
// were scheduled in, and pop takes the least across the tiers. Within a
// tier the order is kept by position (now, calendar) or by seq (far).
// Across tiers, events at one instant run far, then calendar, then now:
// a far event was filed while its instant lay beyond the ring's window
// and a calendar event while it lay inside, and the window only moves
// forward, so the far one was scheduled first; a now event was
// scheduled at its instant, after both.
const (
	bucketShift = 12 // a calendar bucket spans 2^12 ps
	ringSize    = 256
	ringMask    = ringSize - 1
	// horizon is the span the calendar covers from the current bucket.
	horizon = ringSize << bucketShift
)

// calendar is the near-horizon tier. Its earliest event is held apart
// in first, so a calendar of one event (a lone job on a Server, say)
// never touches the ring. The rest sit in the ring: slot k&ringMask
// holds the events whose at>>bucketShift is k. Every event lies in the
// ring's window [now>>bucketShift, now>>bucketShift+ringSize), so a
// slot names exactly one bucket, and the first non-empty slot from lo
// holds the ring's earliest event.
//
// A bucket's events are sorted by (at, scheduling order) from its head
// index. A drained bucket hands its storage to spare, and a bucket that
// fills takes storage from there, so storage grows to the most buckets
// in use at once, not to every slot the clock sweeps past.
type calendar struct {
	first entry
	n     int                   // events held, first included
	lo    Time                  // absolute number of the ring's earliest non-empty bucket, when n > 1
	full  [ringSize / 64]uint64 // bit k set: slot k is non-empty
	spare [][]entry
	b     [ringSize]bucket
}

// bucket holds one slot's events from head; nil when empty.
type bucket struct {
	evs  []entry
	head int
}

// Engine is a single-threaded discrete-event scheduler. The zero value is
// ready to use. Engines are not safe for concurrent use; the entire model
// runs on one goroutine.
type Engine struct {
	now     Time
	nowq    []Handler // events at now, in scheduling order from nowHead
	nowHead int
	cal     *calendar // allocated on the first near event
	far     []event   // 4-ary min-heap on (at, seq)
	seq     uint64    // far events scheduled so far
	ran     uint64
}

// push files h, due at at >= now, in the tier at's distance from now
// selects.
//
//herd:hotpath
func (e *Engine) push(at Time, h Handler) {
	switch {
	case at == e.now:
		e.nowq = append(e.nowq, h)
	case at>>bucketShift-e.now>>bucketShift < ringSize:
		if e.cal == nil {
			e.cal = new(calendar) //lint:allow hotalloc — once per engine, on its first near event
		}
		e.cal.push(entry{at, h})
	default:
		e.seq++
		e.pushFar(event{at, e.seq, h})
	}
}

// pop removes the earliest event and returns its time and handler, if
// it is due at or before deadline. Every vacated slot is zeroed so a
// finished callback is not kept reachable by a backing array.
//
//herd:hotpath
func (e *Engine) pop(deadline Time) (Time, Handler, bool) {
	c := e.cal
	near := c != nil && c.n > 0
	far := len(e.far) > 0 && (!near || e.far[0].at <= c.first.at)
	var at Time
	switch {
	case far:
		at = e.far[0].at
	case near:
		at = c.first.at
	}
	if e.nowHead < len(e.nowq) && (!(near || far) || at > e.now) {
		if e.now > deadline {
			return 0, nil, false
		}
		h := e.nowq[e.nowHead]
		e.nowq[e.nowHead] = nil
		e.nowHead++
		if e.nowHead == len(e.nowq) {
			e.nowq, e.nowHead = e.nowq[:0], 0
		}
		return e.now, h, true
	}
	if !(near || far) || at > deadline {
		return 0, nil, false
	}
	if far {
		return at, e.popFar(), true
	}
	return at, c.pop(), true
}

// push adds ev to the calendar, after every queued event due at the
// same instant. Time mostly moves forward, so ev usually goes after its
// bucket's tail.
//
//herd:hotpath
func (c *calendar) push(ev entry) {
	c.n++
	if c.n == 1 {
		c.first = ev
		return
	}
	// The old first precedes every event in the ring, so if ev takes
	// its place it goes to the head of its bucket.
	displaced := ev.at < c.first.at
	if displaced {
		ev, c.first = c.first, ev
	}
	abs := ev.at >> bucketShift
	if c.n == 2 || abs < c.lo {
		c.lo = abs
	}
	slot := int(abs & ringMask)
	b := &c.b[slot]
	if b.evs == nil {
		c.full[slot>>6] |= 1 << (slot & 63)
		if k := len(c.spare) - 1; k >= 0 {
			b.evs, c.spare = c.spare[k], c.spare[:k]
		}
	}
	i := len(b.evs)
	b.evs = append(b.evs, ev)
	for i > b.head && (displaced || ev.at < b.evs[i-1].at) {
		b.evs[i] = b.evs[i-1]
		i--
	}
	b.evs[i] = ev
}

// pop removes the calendar's earliest event, returns its handler, and
// moves the ring's earliest into first. When that drains its bucket,
// the bitmap names the next non-empty one, unless the ring is now
// empty.
//
//herd:hotpath
func (c *calendar) pop() Handler {
	h := c.first.h
	c.n--
	if c.n == 0 {
		c.first = entry{}
		return h
	}
	slot := int(c.lo & ringMask)
	b := &c.b[slot]
	c.first, b.evs[b.head] = b.evs[b.head], entry{}
	b.head++
	if b.head == len(b.evs) {
		c.spare = append(c.spare, b.evs[:0])
		b.evs, b.head = nil, 0
		c.full[slot>>6] &^= 1 << (slot & 63)
		if c.n > 1 {
			c.lo += Time(c.gap(slot))
		}
	}
	return h
}

// gap returns the distance from slot to the next non-empty slot after
// it, going round the ring. Some other slot is non-empty.
//
//herd:hotpath
func (c *calendar) gap(slot int) int {
	i := (slot + 1) & ringMask
	w, off := i>>6, i&63
	if m := c.full[w] >> off; m != 0 {
		return 1 + bits.TrailingZeros64(m)
	}
	d := 1 + 64 - off
	for k := 1; k < len(c.full); k++ {
		if m := c.full[(w+k)&(len(c.full)-1)]; m != 0 {
			return d + bits.TrailingZeros64(m)
		}
		d += 64
	}
	// Back at word w: the slots before i.
	return d + bits.TrailingZeros64(c.full[w])
}

// pushFar inserts ev into the far heap, sifting it up from the new last
// slot.
//
//herd:hotpath
func (e *Engine) pushFar(ev event) {
	e.far = append(e.far, ev)
	q := e.far
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

// popFar removes the far heap's earliest event and returns its
// handler.
//
//herd:hotpath
func (e *Engine) popFar() Handler {
	q := e.far
	h := q[0].h
	n := len(q) - 1
	last := q[n]
	q[n] = event{}
	q = q[:n]
	e.far = q
	if n == 0 {
		return h
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
	return h
}

// New returns a fresh engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed reports how many events have run so far.
func (e *Engine) Processed() uint64 { return e.ran }

// Pending reports how many events are scheduled but not yet run.
func (e *Engine) Pending() int {
	n := len(e.nowq) - e.nowHead + len(e.far)
	if e.cal != nil {
		n += e.cal.n
	}
	return n
}

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
	e.push(t, h)
}

// AfterHandler schedules h.Fire d after the current time.
func (e *Engine) AfterHandler(d Time, h Handler) { e.AtHandler(e.now+d, h) }

// Step runs the earliest pending event, advancing the clock to it.
// It reports whether an event was run.
//
//herd:hotpath
func (e *Engine) Step() bool { return e.stepUntil(maxTime) }

// maxTime is later than any event.
const maxTime = Time(1<<63 - 1)

// stepUntil runs the earliest pending event if it is due at or before
// deadline, and reports whether it ran one.
//
//herd:hotpath
func (e *Engine) stepUntil(deadline Time) bool {
	at, h, ok := e.pop(deadline)
	if !ok {
		return false
	}
	e.now = at
	e.ran++
	h.Fire(at)
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
	for e.stepUntil(deadline) {
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunFor executes events for d of virtual time from the current instant.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }
