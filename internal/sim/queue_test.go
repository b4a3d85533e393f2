package sim

import (
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

// Property: any interleaving of At/After/AtHandler/AfterHandler, Step
// and RunUntil — with heavy equal-timestamp ties, times in the past, and
// events that schedule a same-instant child while firing — runs events
// in exactly the (at, seq) order of the reference model, with the clock
// at each event's time.
func TestEngineMatchesReferenceOrder(t *testing.T) {
	f := func(ops []uint32) bool {
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
			arg := Time(v>>8) % 8 * Nanosecond
			switch v % 6 {
			case 0, 1: // absolute time, up to 4 ns in the past
				at := e.Now() + arg - 4*Nanosecond
				schedule(at, i, v%6 == 1)
				ref.at(at, i)
			case 2:
				e.After(arg/2, func() { log(i, e.Now()) })
				ref.at(ref.now+arg/2, i)
			case 3:
				e.AfterHandler(arg/2, &probe{id: i, log: log})
				ref.at(ref.now+arg/2, i)
			case 4:
				if e.Step() != refStep() {
					return false
				}
			case 5:
				deadline := e.Now() + arg
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
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// A Submit completion runs at its job's end time, and receives exactly
// that time — the value Submit returned and the engine's clock.
func TestSubmitCompletionReceivesNow(t *testing.T) {
	e := New()
	s := NewServer(e, 2)
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

// Popping an event releases the queue's reference to its callback.
func TestPopZeroesVacatedSlot(t *testing.T) {
	e := New()
	for i := 0; i < 5; i++ {
		e.At(Time(i), func() {})
	}
	for e.Step() {
	}
	for _, ev := range e.q[:cap(e.q)] {
		if ev.h != nil {
			t.Fatal("a run event is still referenced by the queue's backing array")
		}
	}
}

// BenchmarkEngineAtStep measures one schedule plus one run against a
// standing queue of 64 events, so push and pop sift through a realistic
// heap depth.
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
	s := NewServer(e, 1)
	done := func(Time) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Submit(Nanosecond, done)
		e.Step()
	}
}
