package pcie

import (
	"testing"
	"testing/quick"

	"herdkv/internal/sim"
)

func TestCachelines(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {-4, 0}, {1, 1}, {63, 1}, {64, 1}, {65, 2}, {128, 2}, {129, 3}, {256, 4},
	}
	for _, c := range cases {
		if got := Cachelines(c.n); got != c.want {
			t.Errorf("Cachelines(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestPIOCostSteps(t *testing.T) {
	// PIO cost must be a step function of payload size with 64 B steps:
	// this is the write-combining behavior behind Figure 4's staircase.
	b := NewBus(sim.New(), Gen3x8())
	if b.PIOCost(36) != b.PIOCost(64) {
		t.Error("36 B and 64 B should cost the same (one cacheline)")
	}
	if b.PIOCost(64) >= b.PIOCost(65) {
		t.Error("crossing a cacheline boundary must increase cost")
	}
	step := b.PIOCost(129) - b.PIOCost(65)
	want := b.p.PerCacheline + b.p.PerCachelineWC
	if step != want {
		t.Errorf("step beyond 2 CLs = %v, want %v (incl. WC pressure)", step, want)
	}
	// Within the first two cachelines there is no WC pressure.
	if d := b.PIOCost(65) - b.PIOCost(1); d != b.p.PerCacheline {
		t.Errorf("1->2 CL step = %v, want %v", d, b.p.PerCacheline)
	}
}

func TestPIOWriteCompletes(t *testing.T) {
	eng := sim.New()
	b := NewBus(eng, Gen3x8())
	var at sim.Time = -1
	b.PIOWrite(64, func(end sim.Time) { at = end })
	eng.Run()
	// One cacheline: engine occupancy is doorbell + one pipelined flush,
	// but the WQE's own latency is the full store latency.
	want := Gen3x8().PerDoorbell + Gen3x8().PerCachelineLat
	if at != want {
		t.Fatalf("PIO completion at %v, want %v", at, want)
	}
}

func TestPIOSerializes(t *testing.T) {
	eng := sim.New()
	b := NewBus(eng, Gen3x8())
	var last sim.Time
	for i := 0; i < 10; i++ {
		b.PIOWrite(64, func(end sim.Time) { last = end })
	}
	eng.Run()
	// Engine occupancy pipelines across WQEs; only the last WQE's own
	// store latency is on the critical path.
	want := 10*(Gen3x8().PerDoorbell+Gen3x8().PerCacheline) + b.PIOExtraLatency(64)
	if last != want {
		t.Fatalf("10 serialized PIOs end at %v, want %v", last, want)
	}
}

func TestDMAReadSlowerThanWrite(t *testing.T) {
	// Non-posted reads carry a round-trip latency; posted writes only a
	// one-way latency. This asymmetry is why inbound WRITEs beat READs.
	eng := sim.New()
	b := NewBus(eng, Gen3x8())
	var readDone, writeDone sim.Time
	b.DMARead(256, func(end sim.Time) { readDone = end })
	eng.Run()
	eng2 := sim.New()
	b2 := NewBus(eng2, Gen3x8())
	b2.DMAWrite(256, func(end sim.Time) { writeDone = end })
	eng2.Run()
	if readDone <= writeDone {
		t.Fatalf("DMA read (%v) should be slower than write (%v)", readDone, writeDone)
	}
}

func TestDMABandwidthBound(t *testing.T) {
	// 1000 writes of 1024 B at 6 GB/s effective: occupancy per op is
	// (1024 + 4*24)/6e9 s = 186.7ns; total ~186.7us plus one latency.
	eng := sim.New()
	b := NewBus(eng, Gen3x8())
	n := 1000
	var last sim.Time
	for i := 0; i < n; i++ {
		b.DMAWrite(1024, func(end sim.Time) { last = end })
	}
	eng.Run()
	perOp := float64(1024+4*24) / 6.0e9 * 1e9 // ns
	wantNS := perOp*float64(n) + 200          // + one posted latency
	gotNS := last.Nanoseconds()
	if gotNS < wantNS*0.99 || gotNS > wantNS*1.01 {
		t.Fatalf("bandwidth-bound completion %v ns, want ~%v ns", gotNS, wantNS)
	}
}

func TestGen2SlowerThanGen3(t *testing.T) {
	g2, g3 := Gen2x8(), Gen3x8()
	if g2.BytesPerSec >= g3.BytesPerSec {
		t.Error("gen2 bandwidth should be below gen3")
	}
	if g2.PerCacheline <= g3.PerCacheline {
		t.Error("gen2 PIO should cost more per cacheline")
	}
}

func TestXferTimeMonotoneProperty(t *testing.T) {
	b := NewBus(sim.New(), Gen3x8())
	f := func(a, c uint16) bool {
		x, y := int(a), int(c)
		if x > y {
			x, y = y, x
		}
		return b.xferTime(x) <= b.xferTime(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZeroByteTransfersFree(t *testing.T) {
	b := NewBus(sim.New(), Gen3x8())
	if b.xferTime(0) != 0 {
		t.Fatal("zero-byte DMA should have zero occupancy")
	}
}

func TestDuplexIndependence(t *testing.T) {
	// Reads and writes use independent data paths (full duplex); saturating
	// one direction must not delay the other.
	eng := sim.New()
	b := NewBus(eng, Gen3x8())
	for i := 0; i < 100; i++ {
		b.DMAWrite(4096, nil)
	}
	var readEnd sim.Time
	b.DMARead(64, func(end sim.Time) { readEnd = end })
	eng.Run()
	soloEng := sim.New()
	solo := NewBus(soloEng, Gen3x8())
	var soloEnd sim.Time
	solo.DMARead(64, func(end sim.Time) { soloEnd = end })
	soloEng.Run()
	if readEnd != soloEnd {
		t.Fatalf("read delayed by writes: %v vs solo %v", readEnd, soloEnd)
	}
}
