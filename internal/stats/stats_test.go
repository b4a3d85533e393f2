package stats

import (
	"testing"

	"herdkv/internal/sim"
)

func TestMeanMinMax(t *testing.T) {
	r := NewLatencyRecorder(0)
	for _, v := range []sim.Time{10, 20, 30} {
		r.Record(v * sim.Nanosecond)
	}
	if r.Mean() != 20*sim.Nanosecond {
		t.Fatalf("mean = %v", r.Mean())
	}
	if lo, hi := r.Percentile(1), r.Percentile(100); lo != 10*sim.Nanosecond || hi != 30*sim.Nanosecond {
		t.Fatalf("min/max = %v/%v", lo, hi)
	}
	if r.count != 3 {
		t.Fatalf("count = %d", r.count)
	}
}

func TestEmptyRecorder(t *testing.T) {
	r := NewLatencyRecorder(10)
	if r.Mean() != 0 || r.Percentile(50) != 0 {
		t.Fatal("empty recorder should return zeros")
	}
}

func TestPercentiles(t *testing.T) {
	r := NewLatencyRecorder(0)
	for i := 1; i <= 100; i++ {
		r.Record(sim.Time(i) * sim.Microsecond)
	}
	if p := r.Percentile(50); p != 50*sim.Microsecond {
		t.Fatalf("p50 = %v", p)
	}
	if p := r.Percentile(95); p != 95*sim.Microsecond {
		t.Fatalf("p95 = %v", p)
	}
	if p := r.Percentile(5); p != 5*sim.Microsecond {
		t.Fatalf("p5 = %v", p)
	}
	if p := r.Percentile(100); p != 100*sim.Microsecond {
		t.Fatalf("p100 = %v", p)
	}
}

func TestReservoirStaysBounded(t *testing.T) {
	r := NewLatencyRecorder(100)
	for i := 0; i < 100000; i++ {
		r.Record(sim.Time(i%1000) * sim.Nanosecond)
	}
	if len(r.samples) != 100 {
		t.Fatalf("samples = %d, want 100", len(r.samples))
	}
	if r.count != 100000 {
		t.Fatalf("count = %d", r.count)
	}
	// Percentiles should still be roughly right: p50 ~ 500ns.
	p50 := r.Percentile(50).Nanoseconds()
	if p50 < 300 || p50 > 700 {
		t.Fatalf("reservoir p50 = %v ns, want ~500", p50)
	}
}

func TestRecordAfterPercentileKeepsSorting(t *testing.T) {
	r := NewLatencyRecorder(0)
	r.Record(30 * sim.Nanosecond)
	r.Record(10 * sim.Nanosecond)
	_ = r.Percentile(50)
	r.Record(20 * sim.Nanosecond)
	if p := r.Percentile(100); p != 30*sim.Nanosecond {
		t.Fatalf("p100 after re-record = %v", p)
	}
	if p := r.Percentile(1); p != 10*sim.Nanosecond {
		t.Fatalf("p1 after re-record = %v", p)
	}
}

func TestThroughput(t *testing.T) {
	// 26M ops in 1 simulated second = 26 Mops.
	if got := Throughput(26_000_000, sim.Second); got != 26 {
		t.Fatalf("Throughput = %v", got)
	}
	if Throughput(100, 0) != 0 {
		t.Fatal("zero elapsed should give 0")
	}
}
