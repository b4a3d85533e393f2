package nearcache

import (
	"testing"

	"herdkv/internal/kv"
	"herdkv/internal/lint/hotalloc/hotgate"
	"herdkv/internal/sim"
)

// parkedKV is an origin whose GETs wait until the test answers them
// all with one result: no engine events and no allocation per call, so
// a gate measures only the cache.
type parkedKV struct{ pending []func(kv.Result) }

func (p *parkedKV) Get(_ kv.Key, cb func(kv.Result)) error {
	p.pending = append(p.pending, cb)
	return nil
}
func (p *parkedKV) Put(_ kv.Key, _ []byte, cb func(kv.Result)) error { return p.Get(kv.Key{}, cb) }

// answer resolves every parked GET with r.
func (p *parkedKV) answer(r kv.Result) {
	for i, cb := range p.pending {
		p.pending[i] = nil
		cb(r)
	}
	p.pending = p.pending[:0]
}

// TestHotpathAllocFree gates the near cache's //herd:hotpath functions
// at 0 allocs/op: a hit's delivery record, a fill resolving into a
// reused entry, the LRU list, and a herd wait's timer firing after its
// fill resolved. (Serving a hit copies the value out for the caller,
// by contract; the gate schedules a prepared Result.)
func TestHotpathAllocFree(t *testing.T) {
	eng := sim.New()
	origin := &parkedKV{}
	c := New(origin, eng, nil, Config{TTL: sim.Millisecond})
	key, other := k(1), k(2)
	value := []byte("gate value")
	hitRes := kv.Result{Key: key, IsGet: true, Status: kv.StatusHit, Value: value}
	missRes := kv.Result{Key: other, IsGet: true, Status: kv.StatusMiss}
	delivered := 0
	cb := func(kv.Result) { delivered++ }

	hit := func() {
		c.deliverLater(hitRes, cb)
		eng.Run()
	}
	// A miss on a key just invalidated: the fill resolves into the spare
	// entry the invalidation left, with its value buffer.
	fill := func() {
		c.invalidate(key)
		if err := c.Get(key, cb); err != nil {
			t.Fatal(err)
		}
		origin.answer(hitRes)
		eng.Run()
	}
	// Two readers of an absent key: the second parks on the first's
	// fill, and its herd-wait timer fires after the fill resolved.
	herd := func() {
		for i := 0; i < 2; i++ {
			if err := c.Get(other, cb); err != nil {
				t.Fatal(err)
			}
		}
		origin.answer(missRes)
		eng.Run()
	}
	hotgate.Check(t, ".", map[string]func(){
		"Cache.deliver":      hit,
		"Cache.deliverLater": hit,
		"hit.Fire":           hit,
		"Cache.lookup":       fill,
		"Cache.pushFront":    fill,
		"entry.unlink":       fill,
		"Cache.remove":       fill,
		"Cache.insert":       fill,
		"Cache.validity":     fill,
		"fill.onResult":      fill,
		"Cache.putFill":      fill,
		"Cache.putWait":      herd,
		"herdWait.Fire":      herd,
	})
	if delivered == 0 || c.Len() != 1 {
		t.Fatalf("gates delivered %d with %d resident, want 1 resident", delivered, c.Len())
	}
}
