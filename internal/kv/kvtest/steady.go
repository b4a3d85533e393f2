package kvtest

import (
	"runtime"
	"testing"

	"herdkv/internal/kv"
)

// Mix is a closed-loop workload for steady-state allocation budgets:
// each client keeps Depth operations outstanding, and every resolved
// operation issues the client's next one. Operations walk Keys
// round-robin; every PutEvery-th is a PUT of Value (0: reads only).
type Mix struct {
	Clients  []kv.KV
	Depth    int
	Keys     []kv.Key
	Value    []byte
	PutEvery int
	// Run drives the simulation engine until all events drain.
	Run func()
}

// AllocNoise is the slack an allocation budget over a SteadyAllocs run
// grants for allocations no single operation owns: the runtime's own
// bookkeeping in any measured window, and the amortized growth of
// buffers that track a high-water mark (a pool or ring meeting a new
// peak of operations in flight, a log growing by doubling). It is a
// constant, so over a run of 10,000 operations a per-operation
// regression of 0.02 still exceeds it.
const AllocNoise = 128

// SlabRefills bounds the allocations behind n GET-hit values of size
// bytes spread over slabs kv.Slab values: a block holds at least
// SlabSize/size values, and each slab may refill once more for a block
// it left partly used.
func SlabRefills(n, size, slabs int) uint64 {
	return uint64(n/(kv.SlabSize/size) + slabs)
}

// Counts tallies the operations of one measured run and the heap
// allocations (runtime.MemStats.Mallocs) made while they ran.
type Counts struct {
	Gets, Hits, Puts, Failed int
	Mallocs                  uint64
}

// SteadyAllocs runs warm operations so pools, rings and caches reach
// their working size, then counts heap allocations over n more. The
// driver itself allocates nothing per operation: callbacks are bound
// once per client and PUTs pass Value as is (kv.KV copies it).
func SteadyAllocs(t *testing.T, m Mix, warm, n int) Counts {
	t.Helper()
	var (
		c         Counts
		issued    int
		target    int
		measuring bool
	)
	next := make([]func(kv.Result), len(m.Clients))
	var issue func(i int)
	issue = func(i int) {
		if issued >= target {
			return
		}
		op := issued
		issued++
		key := m.Keys[op%len(m.Keys)]
		var err error
		if m.PutEvery > 0 && op%m.PutEvery == 0 {
			err = m.Clients[i].Put(key, m.Value, next[i])
		} else {
			err = m.Clients[i].Get(key, next[i])
		}
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
	for i := range next {
		i := i
		next[i] = func(r kv.Result) {
			if measuring {
				switch {
				case r.Err != nil:
					c.Failed++
				case !r.IsGet:
					c.Puts++
				default:
					c.Gets++
					if r.Status == kv.StatusHit {
						c.Hits++
					}
				}
			}
			issue(i)
		}
	}
	start := func() {
		for d := 0; d < m.Depth; d++ {
			for i := range m.Clients {
				issue(i)
			}
		}
		m.Run()
	}

	target = warm
	start()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	measuring, target = true, issued+n
	start()
	runtime.ReadMemStats(&after)
	c.Mallocs = after.Mallocs - before.Mallocs
	if got := c.Gets + c.Puts + c.Failed; got != n {
		t.Fatalf("measured %d resolved operations, want %d", got, n)
	}
	return c
}
