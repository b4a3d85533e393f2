// Package stats provides latency recording (mean / percentiles, as in
// Figure 11's error bars) and throughput accounting for experiments.
//
// It is the experiment-side aggregator: a recorder the drivers create,
// fill and read per run. The always-on, name-addressed counterpart —
// counters, gauges and histograms shared by every layer of the stack,
// plus request-lifecycle tracing — is internal/telemetry (see
// docs/OBSERVABILITY.md).
package stats

import (
	"sort"

	"herdkv/internal/sim"
)

// LatencyRecorder accumulates latency samples. Beyond its capacity it
// switches to reservoir sampling, so percentile estimates stay unbiased
// for arbitrarily long runs at bounded memory.
type LatencyRecorder struct {
	samples []sim.Time
	cap     int
	count   uint64
	sum     sim.Time
	rnd     *sim.Rand
	sorted  bool
}

// NewLatencyRecorder returns a recorder keeping at most capacity samples
// (default 65536 if capacity <= 0).
func NewLatencyRecorder(capacity int) *LatencyRecorder {
	if capacity <= 0 {
		capacity = 65536
	}
	return &LatencyRecorder{
		cap: capacity,
		rnd: sim.NewRand(1),
	}
}

// Record adds one sample.
func (r *LatencyRecorder) Record(t sim.Time) {
	r.count++
	r.sum += t
	r.sorted = false
	if len(r.samples) < r.cap {
		r.samples = append(r.samples, t)
		return
	}
	// Reservoir: replace a random existing sample with probability
	// cap/count.
	if j := r.rnd.Int63n(int64(r.count)); int(j) < r.cap {
		r.samples[j] = t
	}
}

// Mean returns the exact mean over all recorded samples.
func (r *LatencyRecorder) Mean() sim.Time {
	if r.count == 0 {
		return 0
	}
	return r.sum / sim.Time(r.count)
}

// Percentile returns the p-th percentile (0 < p <= 100) from the sample
// set.
func (r *LatencyRecorder) Percentile(p float64) sim.Time {
	if len(r.samples) == 0 {
		return 0
	}
	if !r.sorted {
		sort.Slice(r.samples, func(i, j int) bool { return r.samples[i] < r.samples[j] })
		r.sorted = true
	}
	idx := int(p/100*float64(len(r.samples))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(r.samples) {
		idx = len(r.samples) - 1
	}
	return r.samples[idx]
}

// Throughput converts an operation count over a virtual duration to
// millions of operations per second (the paper's Mops).
func Throughput(ops uint64, elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(ops) / elapsed.Seconds() / 1e6
}
