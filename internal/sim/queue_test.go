package sim

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

// refEvent is one pending event in the reference model.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}

// refQueue is the engine's ordering contract written as plainly as
// possible: a slice scanned for the least (at, seq), with past times
// clamped to now.
type refQueue struct {
	now Time
	seq uint64
	q   []refEvent
}

func (m *refQueue) at(t Time, id int) {
	if t < m.now {
		t = m.now
	}
	m.seq++
	m.q = append(m.q, refEvent{at: t, seq: m.seq, id: id})
}

// next returns the index of the least (at, seq) pending event, or -1.
func (m *refQueue) next() int {
	best := -1
	for i, ev := range m.q {
		if best < 0 || ev.at < m.q[best].at || (ev.at == m.q[best].at && ev.seq < m.q[best].seq) {
			best = i
		}
	}
	return best
}

func (m *refQueue) step() (refEvent, bool) {
	i := m.next()
	if i < 0 {
		return refEvent{}, false
	}
	ev := m.q[i]
	m.q = append(m.q[:i], m.q[i+1:]...)
	m.now = ev.at
	return ev, true
}

// firing is one event run: its id and the time it ran at.
type firing struct {
	id int
	at Time
}

// probe is a pointer-typed Handler, as a pooled stage record would be.
type probe struct {
	id  int
	log func(id int, at Time)
}

func (p *probe) Fire(at Time) { p.log(p.id, at) }

// childBase offsets the ids of events scheduled from inside a firing.
const childBase = 1 << 20

// drawDelay maps x onto a delay that reaches every tier of the queue
// and the edges between them: the current instant, one bucket width
// and ±1 ps, the horizon and ±1 ps, anywhere inside the ring, several
// ring laps out, and 10–20 µs timers on a µs grid (so they tie with
// each other and with grid-aligned near events).
func drawDelay(x uint32) Time {
	r := Time(x >> 3)
	switch x % 8 {
	case 0:
		return 0
	case 1:
		return r % 8 * Nanosecond // heavy equal-timestamp ties
	case 2:
		return 1<<bucketShift + r%3 - 1
	case 3:
		return horizon + r%3 - 1
	case 4:
		return r % horizon
	case 5:
		return (2+r%4)*horizon + r%(1<<bucketShift)
	case 6:
		return (10 + r%11) * Microsecond
	default:
		return r % 64 * Nanosecond
	}
}

// engineMatchesReference drives an engine and the reference model with
// the same interleaving of At/After/AtHandler/AfterHandler, Step and
// RunUntil, and reports whether the engine ran events in exactly the
// (at, seq) order of the reference model, with the clock at each
// event's time. The schedule has heavy equal-timestamp ties, times in
// the past, delays reaching every tier (see drawDelay), absolute times
// on a µs grid that tie near events with far timers, events that
// schedule a same-instant child while firing, and RunUntil deadlines
// that land mid-bucket.
func engineMatchesReference(ops []uint32) bool {
	e := New()
	var ref refQueue
	var got, want []firing
	ok := true

	var schedule func(t Time, id int, handler bool)
	log := func(id int, at Time) {
		if at != e.Now() {
			ok = false
		}
		got = append(got, firing{id, at})
		if id%4 == 0 && id < childBase {
			schedule(e.Now(), id+childBase, id%8 == 0)
		}
	}
	schedule = func(t Time, id int, handler bool) {
		if handler {
			e.AtHandler(t, &probe{id: id, log: log})
		} else {
			e.At(t, func() { log(id, e.Now()) })
		}
	}
	refStep := func() bool {
		ev, ran := ref.step()
		if ran {
			want = append(want, firing{ev.id, ev.at})
			if ev.id%4 == 0 && ev.id < childBase {
				ref.at(ref.now, ev.id+childBase)
			}
		}
		return ran
	}

	for i, v := range ops {
		d := drawDelay(v >> 3)
		switch v % 8 {
		case 0, 1: // absolute time, up to 4 ns in the past
			at := e.Now() + d - 4*Nanosecond
			schedule(at, i, v%8 == 1)
			ref.at(at, i)
		case 2: // absolute time on the µs grid; the current µs is past
			at := (e.Now()/Microsecond + d/Microsecond) * Microsecond
			schedule(at, i, v&(1<<16) != 0)
			ref.at(at, i)
		case 3:
			e.After(d, func() { log(i, e.Now()) })
			ref.at(ref.now+d, i)
		case 4:
			e.AfterHandler(d, &probe{id: i, log: log})
			ref.at(ref.now+d, i)
		case 5, 6:
			if e.Step() != refStep() {
				return false
			}
		case 7:
			deadline := e.Now() + d
			e.RunUntil(deadline)
			for i := ref.next(); i >= 0 && ref.q[i].at <= deadline; i = ref.next() {
				refStep()
			}
			if ref.now < deadline {
				ref.now = deadline
			}
		}
		if e.Now() != ref.now || e.Pending() != len(ref.q) {
			return false
		}
	}
	e.Run()
	for refStep() {
	}
	if !ok || len(got) != len(want) || e.Processed() != uint64(len(want)) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// Property: the engine runs any schedule in the reference model's order.
func TestEngineMatchesReferenceOrder(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(engineMatchesReference, cfg); err != nil {
		t.Fatal(err)
	}
}

// FuzzEngineOrder checks the engine against the reference model on
// schedules decoded from the fuzzer's bytes, four bytes per operation.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x0c, 0x10, 0x00, 0x00, 0x33, 0x00, 0x01, 0x00, 0x05, 0, 0, 0}, 8))
	f.Add(bytes.Repeat([]byte{0x1b, 0x02, 0x00, 0x00, 0x2c, 0x07, 0x00, 0x00, 0x06, 0, 0, 0, 0x3f, 0x01, 0, 0}, 16))
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := make([]uint32, len(data)/4)
		for i := range ops {
			ops[i] = binary.LittleEndian.Uint32(data[4*i:])
		}
		if !engineMatchesReference(ops) {
			t.Fatalf("engine order differs from the reference model for ops %v", ops)
		}
	})
}

// A Submit completion runs at its job's end time, and receives exactly
// that time — the value Submit returned and the engine's clock.
func TestSubmitCompletionReceivesNow(t *testing.T) {
	e := New()
	s := NewServer(e)
	runs := 0
	for i := 0; i < 6; i++ {
		var want Time
		want = s.Submit(Time(10+i)*Nanosecond, func(end Time) {
			runs++
			if end != e.Now() || end != want {
				t.Errorf("completion got end=%v, Now=%v, Submit returned %v", end, e.Now(), want)
			}
		})
	}
	e.Run()
	if runs != 6 {
		t.Fatalf("%d completions ran, want 6", runs)
	}
}

// Popping an event releases the queue's reference to its callback, in
// every tier's storage.
func TestPopZeroesVacatedSlot(t *testing.T) {
	e := New()
	for i := 0; i < 5; i++ {
		for _, d := range []Time{0, Time(i), Time(i) << bucketShift, horizon + Time(i), 20 * Microsecond} {
			e.After(d, func() {})
		}
	}
	for e.Step() {
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after Run", e.Pending())
	}
	var held []Handler
	for _, h := range e.nowq[:cap(e.nowq)] {
		held = append(held, h)
	}
	for _, ev := range e.far[:cap(e.far)] {
		held = append(held, ev.h)
	}
	held = append(held, e.cal.first.h)
	for _, evs := range e.cal.spare {
		for _, ev := range evs[:cap(evs)] {
			held = append(held, ev.h)
		}
	}
	for _, h := range held {
		if h != nil {
			t.Fatal("a run event is still referenced by a queue's backing array")
		}
	}
	if cap(e.nowq) == 0 || cap(e.far) == 0 || len(e.cal.spare) == 0 {
		t.Fatal("the schedule did not reach every tier")
	}
}

// BenchmarkEngineAtStep measures one schedule plus one run against a
// standing queue of 64 near events, all in the calendar's current
// bucket.
func BenchmarkEngineAtStep(b *testing.B) {
	e := New()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.At(Time(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(64, fn)
		e.Step()
	}
}

// BenchmarkServerSubmit measures one job through a single-unit Server:
// the reservation, the completion event, and the callback.
func BenchmarkServerSubmit(b *testing.B) {
	e := New()
	s := NewServer(e)
	done := func(Time) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Submit(Nanosecond, done)
		e.Step()
	}
}

// mixEvent is one standing event of BenchmarkEngineFleetMix: a near
// event reschedules itself within the horizon (17% at the same
// instant), and a timer re-arms 12–13.2 µs out.
type mixEvent struct {
	e     *Engine
	rng   *Rand
	timer bool
}

func (m *mixEvent) Fire(Time) {
	switch r := m.rng.Uint64(); {
	case m.timer:
		m.e.AfterHandler(12*Microsecond+Time(r%uint64(1200*Nanosecond)), m)
	case r%100 < 17:
		m.e.AfterHandler(0, m)
	default:
		m.e.AfterHandler(Time(r>>8%uint64(Microsecond)), m)
	}
}

// BenchmarkEngineFleetMix measures one event run against a standing
// queue shaped like a fleet-write run's: about 240 near events within
// 1 µs, 17% of schedules at the same instant, and 1,300 retry timers
// 12–13.2 µs out.
func BenchmarkEngineFleetMix(b *testing.B) {
	e := New()
	rng := NewRand(1)
	for i := 0; i < 1540; i++ {
		m := &mixEvent{e: e, rng: rng, timer: i >= 240}
		if m.timer {
			e.AfterHandler(Time(rng.Uint64()%uint64(13200*Nanosecond)), m)
		} else {
			e.AfterHandler(Time(rng.Uint64()%uint64(Microsecond)), m)
		}
	}
	for i := 0; i < 100000; i++ {
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
