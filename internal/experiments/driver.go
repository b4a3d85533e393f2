package experiments

import (
	"herdkv/internal/cluster"
	"herdkv/internal/kv"
	"herdkv/internal/sim"
	"herdkv/internal/stats"
	"herdkv/internal/workload"
)

// Measurement windows. Experiments warm up (filling pipelines and
// caches), then measure over a steady-state span of virtual time.
// Shrinking these trades precision for wall-clock speed (the benchmark
// harness does).
var (
	Warmup = 150 * sim.Microsecond
	Span   = 400 * sim.Microsecond
)

// pump launches a closed-loop driver: `window` chains, each reissuing
// through issue(done) when the previous op completes. The returned stop
// function halts reissue.
func pump(window int, issue func(done func())) (stop func()) {
	stopped := false
	var loop func()
	loop = func() {
		issue(func() {
			if !stopped {
				loop()
			}
		})
	}
	for i := 0; i < window; i++ {
		loop()
	}
	return func() { stopped = true }
}

// preloadKeys inserts keys 0..n-1, each with its
// workload.ExpectedValue of size bytes, and panics on a refused insert.
// Every insert path copies the value before it returns (core and fleet
// Preload, the Pilaf/FaRM Insert, mica's Put), so one buffer serves
// the whole keyspace.
func preloadKeys(n uint64, size int, insert func(kv.Key, []byte) error) {
	var val []byte
	for k := uint64(0); k < n; k++ {
		key := kv.FromUint64(k)
		val = workload.AppendExpectedValue(val[:0], key, size)
		if err := insert(key, val); err != nil {
			panic(err)
		}
	}
}

// measureMops runs the engine through warmup then Span, reading counter
// before and after, and returns millions of ops per second.
func measureMops(cl *cluster.Cluster, counter *uint64) float64 {
	cl.Eng.RunFor(Warmup)
	start := *counter
	cl.Eng.RunFor(Span)
	return stats.Throughput(*counter-start, Span)
}

// meanLatencySerial issues reps sequential operations through op (which
// must invoke done exactly once per issue with the measured latency) and
// returns the mean.
func meanLatencySerial(cl *cluster.Cluster, reps int, op func(done func(sim.Time))) sim.Time {
	var total sim.Time
	n := 0
	var next func()
	next = func() {
		if n >= reps {
			return
		}
		op(func(lat sim.Time) {
			total += lat
			n++
			next()
		})
	}
	next()
	cl.Eng.Run()
	if n == 0 {
		return 0
	}
	return total / sim.Time(n)
}

// mustPost consumes the synchronous error from a verbs post in an
// experiment driver. Experiments run fault-free, so a rejected post is
// a driver bug: fail loudly rather than measure a silently idle run.
func mustPost(err error) {
	if err != nil {
		panic(err)
	}
}
