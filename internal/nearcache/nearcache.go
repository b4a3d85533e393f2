// Package nearcache is a client-side near cache: a kv.KV that wraps
// any other kv.KV (a HERD client, a fleet deployment, a mux channel)
// and serves recently read values from client memory, so a Zipf-skewed
// read mix stops crossing the wire for its hottest keys.
//
// Freshness is a *bounded-staleness* contract, not linearizability:
//
//   - In TTL mode every cached value expires Config.TTL after it was
//     fetched.
//   - In lease mode (Config.Leases) the origin server grants an
//     explicit expiry with each GET hit (core.Config.LeaseTTL, carried
//     in kv.Result.Lease) and the cache honors whichever of lease and
//     TTL comes first. The server keeps no per-lease state: a write is
//     never blocked by an outstanding lease, so a concurrent writer's
//     update becomes visible to a cached reader at worst when the
//     lease runs out.
//   - Writes through the wrapper invalidate the local entry at submit
//     time and mark any in-flight fill stale, so a client never serves
//     its *own* writes stale.
//
// Misses run under promise-based thundering-herd suppression (the
// justcache 202/409 protocol, adapted to an async client): the first
// client to miss a key issues the origin fetch and becomes the filler;
// concurrent missers park on the in-flight promise and share its
// result instead of dog-piling the origin shard. The promise is this
// client's own inner Get, and kv.KV runs every op's callback exactly
// once when the backend has a retry budget (a fleet client always
// does), so a parked waiter needs no timeout of its own: a slow or
// crashed origin fails the fill with core.ErrTimedOut, and every
// waiter gets that error.
//
// See docs/CACHING.md for the full contract and the cache.* metric
// rows in docs/OBSERVABILITY.md.
package nearcache

import (
	"herdkv/internal/kv"
	"herdkv/internal/sim"
	"herdkv/internal/telemetry"
)

// HitLatency is the modeled cost of serving a GET from the near cache:
// a local hash lookup and value copy, no PCIe and no wire. Cached hits
// are still delivered asynchronously on the engine — callers observe
// the same callback discipline as every other backend, just ~40x
// faster than a one-RTT remote GET.
const HitLatency = 100 * sim.Nanosecond

// Config parameterizes a near cache.
type Config struct {
	// TTL bounds how long a fetched value may be served locally. In
	// lease mode it acts as a cap on top of the server's lease. The
	// default is 25µs (virtual time).
	TTL sim.Time
	// Leases selects lease mode: entries expire at the server-granted
	// lease instant (kv.Result.Lease) when the backend provides one,
	// still capped by TTL. Results carrying no lease fall back to
	// plain TTL validity.
	Leases bool
	// Capacity bounds resident entries; the least recently used entry
	// is evicted first. The default is 1024.
	Capacity int
}

// DefaultConfig returns the default near-cache parameters.
func DefaultConfig() Config { return Config{TTL: 25 * sim.Microsecond, Capacity: 1024} }

// setDefaults normalizes a user config in place.
func (c *Config) setDefaults() {
	if c.TTL <= 0 {
		c.TTL = 25 * sim.Microsecond
	}
	if c.Capacity <= 0 {
		c.Capacity = 1024
	}
}

// entry is one resident value, linked into the LRU list. Entries are
// reused: one that leaves the cache (evicted, expired, invalidated)
// goes to the spare list with its value buffer and backs a later
// insert.
type entry struct {
	key        kv.Key
	value      []byte
	expires    sim.Time // absolute virtual-time validity bound
	prev, next *entry   // LRU neighbors; the list's sentinel closes the ring
}

// waiter is one caller parked on an in-flight fill (the filler itself
// is the first waiter).
type waiter struct {
	cb    func(kv.Result)
	start sim.Time
}

// fill is the in-flight promise for one missed key: a pooled record
// whose inner-Get callback (resolve) is bound once. A fill returns to
// the pool when it resolves.
type fill struct {
	c       *Cache
	key     kv.Key
	waiters []waiter
	stale   bool            // a write raced the fill; don't cache its result
	resolve func(kv.Result) // bound once to onResult
}

// Cache is the near cache. It implements kv.KV.
// Like every client in this tree it is single-goroutine: all calls and
// callbacks run on the simulation engine.
//
// Per-operation state lives in pooled records — fills, hit deliveries,
// write-throughs — each returned to its pool exactly once, and callers'
// copies of values are cut from a slab, so a steady read mix allocates
// only a slab refill per 4 KiB of values served.
type Cache struct {
	inner kv.KV
	clk   sim.Clock
	cfg   Config

	entries map[kv.Key]*entry
	lru     entry // sentinel: lru.next is the most recently used entry
	spare   []*entry
	fills   map[kv.Key]*fill

	fillFree  []*fill
	hitFree   []*hit
	writeFree []*writeThrough

	// vals backs the values handed to callers: hit copies and herd
	// waiters' copies of a shared fill (kv.Slab).
	vals kv.Slab

	telHits       *telemetry.Counter
	telMisses     *telemetry.Counter
	telExpired    *telemetry.Counter
	telFillsDone  *telemetry.Counter
	telHerdWaits  *telemetry.Counter
	telInvalidate *telemetry.Counter
	telEvictions  *telemetry.Counter
	telSize       *telemetry.Gauge
}

var _ kv.KV = (*Cache)(nil)

// New wraps inner with a near cache. clk is the deployment's virtual
// clock (the cluster engine); tel may be nil.
func New(inner kv.KV, clk sim.Clock, tel *telemetry.Sink, cfg Config) *Cache {
	cfg.setDefaults()
	c := &Cache{
		inner:   inner,
		clk:     clk,
		cfg:     cfg,
		entries: make(map[kv.Key]*entry),
		fills:   make(map[kv.Key]*fill),
	}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	c.telHits = tel.Counter("cache.hits")
	c.telMisses = tel.Counter("cache.misses")
	c.telExpired = tel.Counter("cache.lease.expired")
	c.telFillsDone = tel.Counter("cache.fills")
	c.telHerdWaits = tel.Counter("cache.herd.waits")
	c.telInvalidate = tel.Counter("cache.invalidations")
	c.telEvictions = tel.Counter("cache.evictions")
	c.telSize = tel.Gauge("cache.size")
	return c
}

// deliver resolves one operation by running its callback.
//
//herd:hotpath
func (c *Cache) deliver(r kv.Result, cb func(kv.Result)) {
	if cb != nil {
		cb(r)
	}
}

// lookup returns the resident, still-valid entry for key, expiring a
// stale one on the way.
//
//herd:hotpath
func (c *Cache) lookup(key kv.Key) *entry {
	e := c.entries[key]
	if e == nil {
		return nil
	}
	if c.clk.Now() >= e.expires {
		// Lazy expiry: the lease (or TTL) ran out before anyone evicted
		// the entry; drop it and treat the read as a miss.
		c.telExpired.Inc()
		c.remove(e)
		return nil
	}
	e.unlink()
	c.pushFront(e)
	return e
}

// pushFront links e in as the most recently used entry.
//
//herd:hotpath
func (c *Cache) pushFront(e *entry) {
	e.prev, e.next = &c.lru, c.lru.next
	c.lru.next.prev = e
	c.lru.next = e
}

// unlink takes e out of the LRU list.
//
//herd:hotpath
func (e *entry) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// remove drops a resident entry, keeping it (and its value buffer) for
// a later insert.
//
//herd:hotpath
func (c *Cache) remove(e *entry) {
	e.unlink()
	delete(c.entries, e.key)
	c.spare = append(c.spare, e)
	c.telSize.Set(int64(len(c.entries)))
}

// insert populates key after a successful fill, evicting LRU entries
// past capacity.
//
//herd:hotpath
func (c *Cache) insert(key kv.Key, value []byte, expires sim.Time) {
	if expires <= c.clk.Now() {
		return // already dead on arrival (e.g. a zero lease in lease mode)
	}
	if e := c.entries[key]; e != nil {
		e.value = append(e.value[:0], value...)
		e.expires = expires
		e.unlink()
		c.pushFront(e)
		c.telFillsDone.Inc()
		return
	}
	for len(c.entries) >= c.cfg.Capacity && c.lru.prev != &c.lru {
		c.telEvictions.Inc()
		c.remove(c.lru.prev)
	}
	var e *entry
	if n := len(c.spare); n > 0 {
		e = c.spare[n-1]
		c.spare = c.spare[:n-1]
	} else {
		e = &entry{} //lint:allow hotalloc — the cache grows to Capacity entries once
	}
	e.key, e.expires = key, expires
	e.value = append(e.value[:0], value...)
	c.pushFront(e)
	c.entries[key] = e
	c.telFillsDone.Inc()
	c.telSize.Set(int64(len(c.entries)))
}

// validity derives the cache expiry a fill result earns: TTL from now,
// tightened to the server's lease in lease mode.
//
//herd:hotpath
func (c *Cache) validity(r kv.Result) sim.Time {
	exp := c.clk.Now() + c.cfg.TTL
	if c.cfg.Leases && r.Lease > 0 && r.Lease < exp {
		exp = r.Lease
	}
	return exp
}

// hitResult builds the Result a cached read serves. The value is
// copied out of the entry into the cache's value slab — callers own
// their Result.Value, and the resident copy must survive caller
// mutation.
func (c *Cache) hitResult(e *entry) kv.Result {
	return kv.Result{
		Key:     e.key,
		IsGet:   true,
		Status:  kv.StatusHit,
		Value:   c.vals.Copy(e.value),
		Latency: HitLatency,
		Lease:   e.expires,
	}
}

// Get serves key from the near cache when resident and valid; a miss
// joins (or creates) the key's in-flight fill.
func (c *Cache) Get(key kv.Key, cb func(kv.Result)) error {
	if key.IsZero() {
		return kv.ErrZeroKey
	}
	if e := c.lookup(key); e != nil {
		c.serveHit(e, cb)
		return nil
	}
	return c.joinFill(key, cb)
}

// serveHit answers a read from resident entry e.
func (c *Cache) serveHit(e *entry, cb func(kv.Result)) {
	c.telHits.Inc()
	c.deliverLater(c.hitResult(e), cb)
}

// hit delivers one cached read HitLatency after it was served: a
// pooled sim.Handler, returned to the pool as it fires.
type hit struct {
	c   *Cache
	res kv.Result
	cb  func(kv.Result)
}

// deliverLater schedules res for cb HitLatency from now.
//
//herd:hotpath
func (c *Cache) deliverLater(res kv.Result, cb func(kv.Result)) {
	var h *hit
	if n := len(c.hitFree); n > 0 {
		h = c.hitFree[n-1]
		c.hitFree = c.hitFree[:n-1]
	} else {
		h = &hit{c: c} //lint:allow hotalloc — pool miss; the pool grows to the hits in flight
	}
	h.res, h.cb = res, cb
	c.clk.AfterHandler(HitLatency, h)
}

// Fire delivers the hit.
//
//herd:hotpath
func (h *hit) Fire(sim.Time) {
	c, res, cb := h.c, h.res, h.cb
	h.res, h.cb = kv.Result{}, nil
	c.hitFree = append(c.hitFree, h)
	c.deliver(res, cb)
}

// joinFill parks cb on key's in-flight fill, creating the fill (and
// issuing the origin fetch) when none is pending.
func (c *Cache) joinFill(key kv.Key, cb func(kv.Result)) error {
	if f := c.fills[key]; f != nil {
		// Herd suppressed: share the promise already in flight.
		c.telHerdWaits.Inc()
		f.waiters = append(f.waiters, waiter{cb: cb, start: c.clk.Now()})
		return nil
	}
	f := c.newFill(key, cb)
	if err := c.inner.Get(key, f.resolve); err != nil {
		c.putFill(f)
		return err
	}
	c.telMisses.Inc()
	c.fills[key] = f
	return nil
}

// newFill returns a pooled fill for key whose first waiter is cb.
func (c *Cache) newFill(key kv.Key, cb func(kv.Result)) *fill {
	var f *fill
	if n := len(c.fillFree); n > 0 {
		f = c.fillFree[n-1]
		c.fillFree = c.fillFree[:n-1]
	} else {
		f = &fill{c: c}
		f.resolve = f.onResult
	}
	f.key = key
	f.waiters = append(f.waiters, waiter{cb: cb, start: c.clk.Now()})
	return f
}

// putFill returns a resolved (or never issued) fill to the pool.
//
//herd:hotpath
func (c *Cache) putFill(f *fill) {
	clear(f.waiters)
	f.waiters, f.stale = f.waiters[:0], false
	c.fillFree = append(c.fillFree, f)
}

// onResult completes a promise: populate the cache (unless a write
// raced the fill) and deliver the result to every parked waiter. A
// Result's Value belongs to its callback, so only the last waiter gets
// the origin's copy; every earlier one gets a copy of its own, taken
// before the origin's is handed out.
//
//herd:hotpath
func (f *fill) onResult(r kv.Result) {
	c := f.c
	if c.fills[f.key] == f {
		delete(c.fills, f.key)
	}
	if !f.stale && r.Status == kv.StatusHit {
		c.insert(f.key, r.Value, c.validity(r))
	}
	now, last := c.clk.Now(), len(f.waiters)-1
	for i := range f.waiters {
		w := &f.waiters[i]
		wr := r
		if i != last && r.Value != nil {
			wr.Value = c.vals.Copy(r.Value)
		}
		wr.Latency = now - w.start
		c.deliver(wr, w.cb)
	}
	c.putFill(f)
}

// writeThrough relays one write's origin result to its caller: a
// pooled record whose callback (done) is bound once.
type writeThrough struct {
	c    *Cache
	cb   func(kv.Result)
	done func(kv.Result)
}

// getWrite returns a pooled write-through record for cb.
func (c *Cache) getWrite(cb func(kv.Result)) *writeThrough {
	var w *writeThrough
	if n := len(c.writeFree); n > 0 {
		w = c.writeFree[n-1]
		c.writeFree = c.writeFree[:n-1]
	} else {
		w = &writeThrough{c: c}
		w.done = w.onDone
	}
	w.cb = cb
	return w
}

// putWrite returns a write-through record to the pool.
func (c *Cache) putWrite(w *writeThrough) {
	w.cb = nil
	c.writeFree = append(c.writeFree, w)
}

// onDone delivers the origin's result.
func (w *writeThrough) onDone(r kv.Result) {
	c, cb := w.c, w.cb
	c.putWrite(w)
	c.deliver(r, cb)
}

// invalidate drops key locally and marks any in-flight fill stale, so
// a write submitted through this wrapper is never shadowed by its own
// cache. Remote writers stay invisible until lease/TTL expiry — that
// is the bounded-staleness contract.
func (c *Cache) invalidate(key kv.Key) {
	dropped := false
	if e := c.entries[key]; e != nil {
		c.remove(e)
		dropped = true
	}
	if f := c.fills[key]; f != nil && !f.stale {
		f.stale = true
		dropped = true
	}
	if dropped {
		c.telInvalidate.Inc()
	}
}

// Put writes through to the origin, invalidating the local entry at
// submit time.
func (c *Cache) Put(key kv.Key, value []byte, cb func(kv.Result)) error {
	if key.IsZero() {
		return kv.ErrZeroKey
	}
	w := c.getWrite(cb)
	if err := c.inner.Put(key, value, w.done); err != nil {
		c.putWrite(w)
		return err
	}
	c.invalidate(key)
	return nil
}
