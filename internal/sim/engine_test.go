package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	e := New()
	if e.Now() != 0 {
		t.Fatalf("Now() = %d, want 0", e.Now())
	}
}

func TestAfterAdvancesClock(t *testing.T) {
	e := New()
	var fired Time = -1
	e.After(5*Microsecond, func() { fired = e.Now() })
	e.Run()
	if fired != 5*Microsecond {
		t.Fatalf("event fired at %v, want 5us", fired)
	}
	if e.Now() != 5*Microsecond {
		t.Fatalf("clock = %v, want 5us", e.Now())
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	e := New()
	var order []int
	e.At(30*Nanosecond, func() { order = append(order, 3) })
	e.At(10*Nanosecond, func() { order = append(order, 1) })
	e.At(20*Nanosecond, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(7*Nanosecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("ties not FIFO: order=%v", order)
		}
	}
}

func TestScheduleInPastClampsToNow(t *testing.T) {
	e := New()
	var fired Time = -1
	e.At(100*Nanosecond, func() {
		e.At(50*Nanosecond, func() { fired = e.Now() })
	})
	e.Run()
	if fired != 100*Nanosecond {
		t.Fatalf("past event fired at %v, want clamp to 100ns", fired)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	count := 0
	var step func()
	step = func() {
		count++
		if count < 100 {
			e.After(Nanosecond, step)
		}
	}
	e.After(0, step)
	e.Run()
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
	if e.Now() != 99*Nanosecond {
		t.Fatalf("clock = %v, want 99ns", e.Now())
	}
}

func TestRunUntilLeavesLaterEventsPending(t *testing.T) {
	e := New()
	ran := 0
	e.At(10*Nanosecond, func() { ran++ })
	e.At(20*Nanosecond, func() { ran++ })
	e.At(30*Nanosecond, func() { ran++ })
	e.RunUntil(20 * Nanosecond)
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	if e.Now() != 20*Nanosecond {
		t.Fatalf("clock = %v, want 20ns", e.Now())
	}
	e.Run()
	if ran != 3 {
		t.Fatalf("after Run, ran = %d, want 3", ran)
	}
}

func TestRunForRelativeWindow(t *testing.T) {
	e := New()
	e.At(5*Nanosecond, func() {})
	e.RunUntil(5 * Nanosecond)
	ran := false
	e.At(9*Nanosecond, func() { ran = true })
	e.RunFor(4 * Nanosecond)
	if !ran {
		t.Fatal("event within RunFor window did not run")
	}
	if e.Now() != 9*Nanosecond {
		t.Fatalf("clock = %v, want 9ns", e.Now())
	}
}

func TestProcessedCount(t *testing.T) {
	e := New()
	for i := 0; i < 42; i++ {
		e.After(Time(i)*Nanosecond, func() {})
	}
	e.Run()
	if e.Processed() != 42 {
		t.Fatalf("Processed = %d, want 42", e.Processed())
	}
}

// Property: for any set of timestamps, events fire in sorted order.
func TestEventOrderProperty(t *testing.T) {
	f := func(stamps []uint16) bool {
		e := New()
		var fired []Time
		for _, s := range stamps {
			at := Time(s) * Nanosecond
			e.At(at, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(stamps) {
			return false
		}
		want := make([]Time, len(stamps))
		for i, s := range stamps {
			want[i] = Time(s) * Nanosecond
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeConversions(t *testing.T) {
	if (2500 * Nanosecond).Microseconds() != 2.5 {
		t.Fatalf("2500ns = %v us, want 2.5", (2500 * Nanosecond).Microseconds())
	}
	if NS(28.6) != 28600*Picosecond {
		t.Fatalf("NS(28.6) = %d ps, want 28600", NS(28.6))
	}
	if Second.Seconds() != 1.0 {
		t.Fatalf("Second.Seconds() = %v", Second.Seconds())
	}
}

func TestServerFIFOSingleUnit(t *testing.T) {
	e := New()
	s := NewServer(e)
	var ends []Time
	for i := 0; i < 3; i++ {
		s.Submit(10*Nanosecond, func(end Time) { ends = append(ends, end) })
	}
	e.Run()
	want := []Time{10 * Nanosecond, 20 * Nanosecond, 30 * Nanosecond}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestServerSaturationThroughput(t *testing.T) {
	// A single-unit server with 40ns service must deliver exactly 25 Mops.
	e := New()
	s := NewServer(e)
	done := 0
	n := 100000
	for i := 0; i < n; i++ {
		s.Submit(40*Nanosecond, func(Time) { done++ })
	}
	e.Run()
	if done != n {
		t.Fatalf("done = %d, want %d", done, n)
	}
	mops := float64(done) / e.Now().Seconds() / 1e6
	if mops < 24.99 || mops > 25.01 {
		t.Fatalf("throughput = %.3f Mops, want 25", mops)
	}
}

func TestServerUtilization(t *testing.T) {
	e := New()
	s := NewServer(e)
	s.Submit(30*Nanosecond, nil)
	if u := s.Utilization(); u != 0 {
		t.Fatalf("utilization at t=0 = %v, want 0", u)
	}
	// At 10ns the 30ns job has served a third of itself; the 20ns
	// still booked lies in the future and does not count.
	e.At(10*Nanosecond, func() {
		if u := s.Utilization(); u != 1 {
			t.Fatalf("utilization at 10ns = %v, want 1", u)
		}
	})
	e.At(60*Nanosecond, func() {})
	e.Run()
	if u := s.Utilization(); u < 0.499 || u > 0.501 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
}

func TestServerZeroAndNegativeService(t *testing.T) {
	e := New()
	s := NewServer(e)
	end := s.Submit(-5*Nanosecond, nil)
	if end != 0 {
		t.Fatalf("negative service end = %v, want 0", end)
	}
	end = s.Submit(0, nil)
	if end != 0 {
		t.Fatalf("zero service end = %v, want 0", end)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.r.Uint64() != b.r.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRand(8)
	same := true
	a2 := NewRand(7)
	for i := 0; i < 10; i++ {
		if a2.r.Uint64() != c.r.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRandDurationBetween(t *testing.T) {
	r := NewRand(1)
	lo, hi := 60*Nanosecond, 120*Nanosecond
	for i := 0; i < 1000; i++ {
		d := r.DurationBetween(lo, hi)
		if d < lo || d > hi {
			t.Fatalf("DurationBetween out of range: %v", d)
		}
	}
	if r.DurationBetween(hi, lo) != hi {
		t.Fatal("inverted range should return lo")
	}
}

// Property: the server serves jobs back to back in submission order,
// and preserves total service time in its busy accounting.
func TestServerBusyAccountingProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		e := New()
		s := NewServer(e)
		var total Time
		for _, v := range raw {
			svc := Time(v) * Nanosecond
			total += svc
			if s.Submit(svc, nil) != total {
				return false
			}
		}
		e.Run()
		return s.BusyTime() == total && s.Jobs() == uint64(len(raw))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}
