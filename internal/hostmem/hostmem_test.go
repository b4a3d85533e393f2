package hostmem

import (
	"testing"
	"testing/quick"

	"herdkv/internal/sim"
)

func newHost(cores int) *Host {
	return NewHost(sim.New(), DefaultParams(), cores, 1)
}

func TestDRAMAccessInRange(t *testing.T) {
	h := newHost(1)
	p := h.Params()
	for i := 0; i < 1000; i++ {
		d := h.DRAMAccess()
		if d < p.DRAMLo || d > p.DRAMHi {
			t.Fatalf("DRAM access %v outside [%v, %v]", d, p.DRAMLo, p.DRAMHi)
		}
	}
}

func TestPrefetchMasksLatency(t *testing.T) {
	// With 8 accesses, prefetching must cut service time by several
	// hundred ns (Figure 7's motivation).
	h := newHost(1)
	var withPF, without sim.Time
	for i := 0; i < 1000; i++ {
		withPF += h.RequestService(8, true)
		without += h.RequestService(8, false)
	}
	if withPF >= without {
		t.Fatalf("prefetch (%v) not faster than stall (%v)", withPF, without)
	}
	// No-prefetch mean should be ~ base + 8*90ns.
	meanNoPF := without.Nanoseconds() / 1000
	p := h.Params()
	base := (p.PollCheck + p.PostSend).Nanoseconds()
	want := base + 8*90
	if meanNoPF < want*0.9 || meanNoPF > want*1.1 {
		t.Fatalf("no-prefetch mean %v ns, want ~%v ns", meanNoPF, want)
	}
}

func TestPrefetchServiceNearBaseForSmallN(t *testing.T) {
	// For the HERD case (2 accesses), prefetched service should be close
	// to poll + post_send: the pipeline fully masks DRAM.
	h := newHost(1)
	p := h.Params()
	base := p.PollCheck + p.PostSend + 2*p.PrefetchedAccess
	var total sim.Time
	n := 1000
	for i := 0; i < n; i++ {
		total += h.RequestService(2, true)
	}
	mean := float64(total) / float64(n)
	if mean < float64(base) || mean > float64(base)*1.35 {
		t.Fatalf("prefetched mean %v ns, want within 35%% above %v ns",
			sim.Time(mean).Nanoseconds(), base.Nanoseconds())
	}
}

func TestSingleCoreHERDRate(t *testing.T) {
	// Section 5.7: one HERD core delivers ~6.3 Mops. Our calibration
	// should land within 20%.
	h := newHost(1)
	var total sim.Time
	n := 10000
	for i := 0; i < n; i++ {
		total += h.RequestService(2, true)
	}
	mops := float64(n) / total.Seconds() / 1e6
	if mops < 5.0 || mops > 7.6 {
		t.Fatalf("single-core rate = %.2f Mops, want ~6.3", mops)
	}
}

func TestZeroAccessService(t *testing.T) {
	h := newHost(1)
	p := h.Params()
	want := p.PollCheck + p.PostSend
	if got := h.RequestService(0, false); got != want {
		t.Fatalf("0-access service = %v, want %v", got, want)
	}
	if got := h.RequestService(0, true); got != want {
		t.Fatalf("0-access prefetch service = %v, want %v", got, want)
	}
}

func TestCoresAreIndependent(t *testing.T) {
	eng := sim.New()
	h := NewHost(eng, DefaultParams(), 4, 1)
	var ends [4]sim.Time
	for i := 0; i < 4; i++ {
		i := i
		h.Core(i).Submit(100*sim.Nanosecond, func(end sim.Time) { ends[i] = end })
	}
	eng.Run()
	for i, e := range ends {
		if e != 100*sim.Nanosecond {
			t.Fatalf("core %d finished at %v, want 100ns (no cross-core queueing)", i, e)
		}
	}
}

func TestNewHostPanicsOnZeroCores(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHost(0 cores) did not panic")
		}
	}()
	NewHost(sim.New(), DefaultParams(), 0, 1)
}

// Property: service time grows monotonically with access count, and
// prefetching never makes a request slower in expectation.
func TestServiceMonotoneProperty(t *testing.T) {
	h := newHost(1)
	f := func(nRaw uint8) bool {
		n := int(nRaw % 16)
		var a, b sim.Time
		for i := 0; i < 50; i++ {
			a += h.RequestService(n, false)
			b += h.RequestService(n+1, false)
		}
		return a < b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
