package nic

import (
	"container/list"

	"herdkv/internal/telemetry"
)

// ContextCache is an LRU cache of queue-pair contexts, modeling the
// RNIC's small on-chip SRAM (Section 3.3). Each verb posted on (or
// arriving for) a QP must have that QP's context on chip; a miss forces a
// PCIe fetch from host memory.
//
// Requester-side send contexts are large (WQE scheduling state), so few
// fit; responder-side receive contexts are small, so many more fit —
// which is exactly why inbound WRITEs scale to hundreds of clients while
// outbound WRITEs collapse (Figure 6). The same cache is the mechanism
// behind Figure 12's client-scaling cliff: past RecvCtxCap concurrently
// active client QPs, every arrival misses (docs/SCALABILITY.md).
type ContextCache struct {
	cap   int
	ll    *list.List
	byKey map[uint64]*list.Element

	// Access counts; the NIC tracks them under nic.ctxcache.<side>.*
	// when instrumented.
	hits, misses, evictions *telemetry.Counter

	// onEvict (optional) observes each eviction's victim key; the NIC
	// hangs telemetry on it.
	onEvict func(victim uint64)
}

// NewContextCache returns a cache holding up to capacity contexts.
// A capacity <= 0 means unbounded (never misses after first touch).
func NewContextCache(capacity int) *ContextCache {
	c := &ContextCache{
		cap:   capacity,
		ll:    list.New(),
		byKey: make(map[uint64]*list.Element),
	}
	telemetry.NewCells(nil, &c.hits, &c.misses, &c.evictions)
	return c
}

// OnEvict registers fn to run with each eviction's victim key.
func (c *ContextCache) OnEvict(fn func(victim uint64)) { c.onEvict = fn }

// Touch records an access to the context for key and reports whether it
// was resident (true = hit). On a miss the context is fetched and the
// least recently used entry evicted if the cache is full.
func (c *ContextCache) Touch(key uint64) bool {
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		c.hits.Inc()
		return true
	}
	c.misses.Inc()
	if c.cap > 0 && c.ll.Len() >= c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		victim := oldest.Value.(uint64)
		delete(c.byKey, victim)
		c.evictions.Inc()
		if c.onEvict != nil {
			c.onEvict(victim)
		}
	}
	c.byKey[key] = c.ll.PushFront(key)
	return false
}

// Hits and Misses report access statistics.
func (c *ContextCache) Hits() uint64   { return c.hits.Value() }
func (c *ContextCache) Misses() uint64 { return c.misses.Value() }

// Evictions reports how many resident contexts were displaced to make
// room for missing ones.
func (c *ContextCache) Evictions() uint64 { return c.evictions.Value() }

// HitRate returns hits / accesses, or 1 if there were no accesses.
func (c *ContextCache) HitRate() float64 {
	total := c.Hits() + c.Misses()
	if total == 0 {
		return 1
	}
	return float64(c.Hits()) / float64(total)
}
