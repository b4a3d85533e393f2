package nearcache

import (
	"bytes"
	"testing"

	"herdkv/internal/kv"
	"herdkv/internal/sim"
	"herdkv/internal/telemetry"
)

// fakeKV is a scriptable origin: a map served after a fixed latency,
// with optional lease grants and a hang count for wedging fills.
type fakeKV struct {
	eng     *sim.Engine
	store   map[kv.Key][]byte
	latency sim.Time
	lease   sim.Time // when > 0, GET hits carry a lease of this TTL
	hang    int      // this many upcoming GETs never resolve

	gets int
}

func newFake(eng *sim.Engine) *fakeKV {
	return &fakeKV{eng: eng, store: make(map[kv.Key][]byte), latency: 5 * sim.Microsecond}
}

func (f *fakeKV) get(key kv.Key) kv.Result {
	r := kv.Result{Key: key, IsGet: true, Status: kv.StatusMiss, Latency: f.latency}
	if v, ok := f.store[key]; ok {
		r.Status = kv.StatusHit
		r.Value = append([]byte(nil), v...)
		if f.lease > 0 {
			r.Lease = f.eng.Now() + f.latency + f.lease
		}
	}
	return r
}

func (f *fakeKV) Get(key kv.Key, cb func(kv.Result)) error {
	if key.IsZero() {
		return kv.ErrZeroKey
	}
	f.gets++
	if f.hang > 0 {
		f.hang--
		return nil // wedged: never resolves, like a crashed shard with no retries
	}
	f.eng.After(f.latency, func() {
		if cb != nil {
			cb(f.get(key))
		}
	})
	return nil
}

func (f *fakeKV) Put(key kv.Key, value []byte, cb func(kv.Result)) error {
	if key.IsZero() {
		return kv.ErrZeroKey
	}
	v := append([]byte(nil), value...)
	f.eng.After(f.latency, func() {
		f.store[key] = v
		if cb != nil {
			cb(kv.Result{Key: key, Status: kv.StatusHit, Latency: f.latency})
		}
	})
	return nil
}

func k(n uint64) kv.Key { return kv.FromUint64(n) }

func TestCachedHitServedLocally(t *testing.T) {
	eng := sim.New()
	f := newFake(eng)
	f.store[k(1)] = []byte("hot value")
	c := New(f, eng, nil, Config{TTL: 50 * sim.Microsecond})

	var first, second kv.Result
	c.Get(k(1), func(r kv.Result) { first = r })
	eng.Run()
	c.Get(k(1), func(r kv.Result) { second = r })
	eng.Run()

	if first.Status != kv.StatusHit || second.Status != kv.StatusHit {
		t.Fatalf("statuses %v / %v, want hits", first.Status, second.Status)
	}
	if !bytes.Equal(second.Value, []byte("hot value")) {
		t.Fatalf("cached value %q", second.Value)
	}
	if f.gets != 1 {
		t.Fatalf("origin saw %d GETs, want 1 (second served locally)", f.gets)
	}
	if second.Latency != HitLatency {
		t.Fatalf("cached hit latency %v, want %v", second.Latency, HitLatency)
	}
	if second.Lease <= 0 {
		t.Fatal("cached hit should propagate its remaining validity as Lease")
	}
	// The caller must own its value: mutating it cannot poison the cache.
	second.Value[0] = 'X'
	var third kv.Result
	c.Get(k(1), func(r kv.Result) { third = r })
	eng.Run()
	if !bytes.Equal(third.Value, []byte("hot value")) {
		t.Fatalf("cache poisoned by caller mutation: %q", third.Value)
	}
}

func TestCounterInvariantsUnderCachedHits(t *testing.T) {
	eng := sim.New()
	f := newFake(eng)
	f.store[k(1)] = []byte("v")
	tel := telemetry.New()
	c := New(f, eng, tel, Config{TTL: sim.Second})

	const n = 20
	counts := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		if err := c.Get(k(1), func(r kv.Result) {
			counts[i]++
			if r.Err != nil {
				t.Errorf("GET %d failed: %v", i, r.Err)
			}
		}); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	}
	for i, got := range counts {
		if got != 1 {
			t.Fatalf("callback %d ran %d times", i, got)
		}
	}
	hits, misses := tel.Counter("cache.hits").Value(), tel.Counter("cache.misses").Value()
	if hits != n-1 || misses != 1 {
		t.Fatalf("cache.hits/misses = %d/%d, want %d/1", hits, misses, n-1)
	}
	if f.gets != 1 {
		t.Fatalf("origin GETs = %d, want 1", f.gets)
	}
}

func TestHerdSuppression(t *testing.T) {
	eng := sim.New()
	f := newFake(eng)
	f.store[k(7)] = []byte("cold then hot")
	tel := telemetry.New()
	c := New(f, eng, tel, Config{TTL: sim.Second})

	const herd = 6
	served := 0
	for i := 0; i < herd; i++ {
		if err := c.Get(k(7), func(r kv.Result) {
			if r.Status != kv.StatusHit || !bytes.Equal(r.Value, []byte("cold then hot")) {
				t.Errorf("herd member got %+v", r)
			}
			served++
		}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if served != herd {
		t.Fatalf("served %d of %d", served, herd)
	}
	if f.gets != 1 {
		t.Fatalf("origin saw %d GETs, want 1 (herd suppressed)", f.gets)
	}
	if got := tel.Counter("cache.herd.waits").Value(); got != herd-1 {
		t.Fatalf("herd.waits = %d, want %d", got, herd-1)
	}
}

// Every parked waiter on one fill owns its Result.Value: mutating the
// first waiter's value must not show through the second's (each waiter
// after the first gets its own copy of the origin's value).
func TestHerdWaitersOwnTheirValues(t *testing.T) {
	eng := sim.New()
	f := newFake(eng)
	f.store[k(7)] = []byte("shared fill")
	c := New(f, eng, nil, Config{TTL: sim.Second})

	var first, second kv.Result
	c.Get(k(7), func(r kv.Result) {
		first = r
		r.Value[0] = 'X'
	})
	c.Get(k(7), func(r kv.Result) { second = r })
	eng.Run()
	if f.gets != 1 {
		t.Fatalf("origin saw %d GETs, want 1 (the second read parks on the fill)", f.gets)
	}
	if first.Status != kv.StatusHit || second.Status != kv.StatusHit {
		t.Fatalf("statuses %v / %v, want hits", first.Status, second.Status)
	}
	if !bytes.Equal(second.Value, []byte("shared fill")) {
		t.Fatalf("second waiter's value %q changed with the first waiter's", second.Value)
	}
	var third kv.Result
	c.Get(k(7), func(r kv.Result) { third = r })
	eng.Run()
	if !bytes.Equal(third.Value, []byte("shared fill")) {
		t.Fatalf("cache poisoned by a waiter's mutation: %q", third.Value)
	}
}

func TestWriteThroughInvalidates(t *testing.T) {
	eng := sim.New()
	f := newFake(eng)
	f.store[k(3)] = []byte("old")
	c := New(f, eng, nil, Config{TTL: sim.Second})

	c.Get(k(3), nil)
	eng.Run()
	c.Put(k(3), []byte("new"), nil)
	eng.Run()
	var got kv.Result
	c.Get(k(3), func(r kv.Result) { got = r })
	eng.Run()

	if string(got.Value) != "new" {
		t.Fatalf("read-your-writes violated: %q", got.Value)
	}
	if f.gets != 2 {
		t.Fatalf("origin GETs = %d, want 2 (invalidated entry refetched)", f.gets)
	}
}

func TestRacingFillNotCached(t *testing.T) {
	eng := sim.New()
	f := newFake(eng)
	f.store[k(4)] = []byte("pre-write")
	c := New(f, eng, nil, Config{TTL: sim.Second})

	// Fill in flight when the write submits: its (pre-write) result
	// must not populate the cache.
	c.Get(k(4), nil)
	c.Put(k(4), []byte("post-write"), nil)
	eng.Run()

	var got kv.Result
	c.Get(k(4), func(r kv.Result) { got = r })
	eng.Run()
	if string(got.Value) != "post-write" {
		t.Fatalf("stale fill cached across a write: %q", got.Value)
	}
}

func TestTTLExpiry(t *testing.T) {
	eng := sim.New()
	f := newFake(eng)
	f.store[k(5)] = []byte("v")
	c := New(f, eng, nil, Config{TTL: 20 * sim.Microsecond})

	c.Get(k(5), nil)
	eng.Run()
	// Within TTL: local. Past TTL: refetch.
	eng.After(10*sim.Microsecond, func() { c.Get(k(5), nil) })
	eng.After(40*sim.Microsecond, func() { c.Get(k(5), nil) })
	eng.Run()
	if f.gets != 2 {
		t.Fatalf("origin GETs = %d, want 2 (one fill, one refetch after expiry)", f.gets)
	}
}

func TestLeaseCapsTTL(t *testing.T) {
	eng := sim.New()
	f := newFake(eng)
	f.store[k(6)] = []byte("v")
	f.lease = 8 * sim.Microsecond // server grants 8µs, TTL allows 100µs
	c := New(f, eng, nil, Config{TTL: 100 * sim.Microsecond, Leases: true})

	c.Get(k(6), nil)
	eng.Run()
	eng.After(20*sim.Microsecond, func() { c.Get(k(6), nil) })
	eng.Run()
	if f.gets != 2 {
		t.Fatalf("origin GETs = %d, want 2 (lease expired before TTL)", f.gets)
	}
}

func TestLRUEviction(t *testing.T) {
	eng := sim.New()
	f := newFake(eng)
	for i := uint64(1); i <= 3; i++ {
		f.store[k(i)] = []byte{byte(i)}
	}
	c := New(f, eng, nil, Config{TTL: sim.Second, Capacity: 2})

	for i := uint64(1); i <= 3; i++ {
		c.Get(k(i), nil)
		eng.Run()
	}
	if c.Len() != 2 {
		t.Fatalf("resident = %d, want 2", c.Len())
	}
	// Key 1 was least recently used: reading it again refetches, while
	// keys 2 and 3 stay local.
	before := f.gets
	c.Get(k(2), nil)
	c.Get(k(3), nil)
	eng.Run()
	if f.gets != before {
		t.Fatal("recent keys were evicted")
	}
	c.Get(k(1), nil)
	eng.Run()
	if f.gets != before+1 {
		t.Fatal("LRU key survived eviction")
	}
}

func TestHerdWaitAbort(t *testing.T) {
	eng := sim.New()
	f := newFake(eng)
	f.store[k(8)] = []byte("eventually")
	f.hang = 1 // the filler's fetch wedges forever
	const ttl = 5 * sim.Microsecond
	c := New(f, eng, nil, Config{TTL: ttl})

	fillerServed := false
	var waiterServed sim.Time = -1
	c.Get(k(8), func(kv.Result) { fillerServed = true })
	c.Get(k(8), func(r kv.Result) {
		if r.Status != kv.StatusHit {
			t.Errorf("aborting waiter got %v", r.Status)
		}
		waiterServed = eng.Now()
	})
	eng.Run()

	if fillerServed {
		t.Fatal("wedged fill resolved somehow")
	}
	if waiterServed < 0 {
		t.Fatal("parked waiter never escaped the wedged fill")
	}
	// The waiter stays parked for exactly 4 TTLs, then fetches directly.
	if waiterServed < herdWaitTTLs*ttl {
		t.Fatalf("waiter escaped at %v, before the %v herd wait", waiterServed, herdWaitTTLs*ttl)
	}
	if f.gets != 2 {
		t.Fatalf("origin GETs = %d, want 2 (wedged fill + direct fetch)", f.gets)
	}
}

func TestZeroKeyRejectedEverywhere(t *testing.T) {
	eng := sim.New()
	c := New(newFake(eng), eng, nil, Config{})
	var zero kv.Key
	ran := false
	cb := func(kv.Result) { ran = true }
	if c.Get(zero, cb) == nil || c.Put(zero, []byte("v"), cb) == nil {
		t.Fatal("zero key accepted")
	}
	eng.Run()
	if ran {
		t.Fatal("a rejected op ran its callback")
	}
}
