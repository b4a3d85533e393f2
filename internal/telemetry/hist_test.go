package telemetry

import (
	"testing"

	"herdkv/internal/sim"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram not zeroed")
	}
	for _, p := range []float64{0, 50, 100} {
		if got := h.Percentile(p); got != 0 {
			t.Fatalf("empty p%.0f = %d, want 0", p, got)
		}
	}
	// A nil histogram is a no-op sink.
	var nilH *Histogram
	nilH.Record(1)
	nilH.RecordTime(sim.Microsecond)
	if nilH.Count() != 0 || nilH.Percentile(50) != 0 {
		t.Fatal("nil histogram should be a no-op")
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := NewHistogram()
	h.Record(12345)
	for _, p := range []float64{0, 1, 50, 99, 100} {
		got := h.Percentile(p)
		// A single sample pins every quantile inside [min, max] = [v, v].
		if got != 12345 {
			t.Fatalf("p%.0f = %d, want 12345", p, got)
		}
	}
	if h.Min() != 12345 || h.Max() != 12345 || h.Mean() != 12345 {
		t.Fatal("single-sample stats wrong")
	}
}

func TestHistogramExactSmallValues(t *testing.T) {
	// Values below subBuckets are recorded exactly.
	h := NewHistogram()
	for v := int64(0); v < subBuckets; v++ {
		h.Record(v)
	}
	if h.Percentile(50) != 7 {
		t.Fatalf("p50 = %d, want 7", h.Percentile(50))
	}
	if h.Percentile(100) != 15 || h.Percentile(0) != 0 {
		t.Fatal("extremes wrong")
	}
}

func TestHistogramQuantizationBound(t *testing.T) {
	// Interior quantiles must be within 1/subBuckets relative error.
	h := NewHistogram()
	const v = 1_000_003
	h.Record(v / 2) // a distinct minimum, so clamping can't mask quantization
	for i := 0; i < 100; i++ {
		h.Record(v)
	}
	got := h.Percentile(75)
	if got > v || float64(v-got)/float64(v) > 1.0/subBuckets {
		t.Fatalf("p75 = %d, want within %.2f%% below %d", got, 100.0/subBuckets, v)
	}
}

func TestHistogramNegativeClamps(t *testing.T) {
	h := NewHistogram()
	h.Record(-5)
	if h.Min() != 0 || h.Max() != 0 || h.Count() != 1 {
		t.Fatalf("negative sample should clamp to 0: min=%d max=%d", h.Min(), h.Max())
	}
}

func TestHistogramPercentileClamping(t *testing.T) {
	// The p100 bucket's lower bound can undershoot max and interior
	// quantiles' bucket bounds can undershoot min; both must clamp.
	h := NewHistogram()
	h.Record(1000)
	h.Record(1001)
	if got := h.Percentile(100); got != 1001 {
		t.Fatalf("p100 = %d, want exact max 1001", got)
	}
	if got := h.Percentile(1); got < 1000 {
		t.Fatalf("p1 = %d, below min", got)
	}
}

func TestBucketGeometry(t *testing.T) {
	// bucketLow must be the smallest value mapping to its bucket, and
	// indexes must stay in range across the whole int64 span.
	for _, v := range []int64{0, 1, 15, 16, 17, 31, 32, 1 << 20, 1<<62 + 12345, 1<<63 - 1} {
		idx := bucketIdx(v)
		if idx < 0 || idx >= nBuckets {
			t.Fatalf("bucketIdx(%d) = %d out of range", v, idx)
		}
		low := bucketLow(idx)
		if low > v {
			t.Fatalf("bucketLow(%d) = %d exceeds value %d", idx, low, v)
		}
		if bucketIdx(low) != idx {
			t.Fatalf("bucketLow(%d) = %d maps to bucket %d", idx, low, bucketIdx(low))
		}
	}
}
