package telemetry

import (
	"math/bits"

	"herdkv/internal/sim"
)

// Histogram bucket geometry: values below subBuckets are recorded
// exactly; above that, each power of two is split into subBuckets
// log-linear sub-buckets (HDR-histogram style), bounding the relative
// quantization error of any reported quantile to 1/subBuckets = 6.25%
// at fixed memory — unlike reservoir sampling, long runs lose nothing.
const (
	subBuckets = 16
	subShift   = 4 // log2(subBuckets)
	// nBuckets covers the full non-negative int64 range: exponents
	// subShift..62 each contribute subBuckets buckets after the exact
	// region.
	nBuckets = subBuckets + (63-subShift)*subBuckets
)

// Histogram is a fixed-memory log-linear histogram of non-negative
// int64 values (negative samples clamp to zero). The zero value is
// ready to use; a nil *Histogram is a valid no-op recorder.
type Histogram struct {
	counts   [nBuckets]uint64
	count    uint64
	sum      int64
	min, max int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketIdx maps a value to its bucket.
func bucketIdx(v int64) int {
	if v < subBuckets {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // 2^exp <= v < 2^(exp+1)
	sub := int(v>>(uint(exp)-subShift)) & (subBuckets - 1)
	return subBuckets + (exp-subShift)*subBuckets + sub
}

// bucketLow returns the smallest value that maps to bucket idx — the
// representative reported for quantiles falling in that bucket.
func bucketLow(idx int) int64 {
	if idx < subBuckets {
		return int64(idx)
	}
	idx -= subBuckets
	exp := idx/subBuckets + subShift
	sub := idx % subBuckets
	return int64(1)<<uint(exp) | int64(sub)<<uint(exp-subShift)
}

// Record adds one sample.
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.counts[bucketIdx(v)]++
}

// RecordTime adds one virtual-duration sample.
func (h *Histogram) RecordTime(t sim.Time) { h.Record(int64(t)) }

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the exact sum of all samples.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Mean returns the exact mean (0 for an empty histogram).
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min and Max return exact extremes (0 for an empty histogram).
func (h *Histogram) Min() int64 {
	if h == nil {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample.
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Percentile returns the p-th percentile. p <= 0 returns the exact
// minimum and p >= 100 the exact maximum; interior quantiles return the
// lower bound of the containing bucket, clamped into [Min, Max]. An
// empty histogram returns 0.
func (h *Histogram) Percentile(p float64) int64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := uint64(p / 100 * float64(h.count))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			v := bucketLow(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}
