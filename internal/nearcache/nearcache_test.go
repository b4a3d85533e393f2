package nearcache

import (
	"bytes"
	"errors"
	"testing"

	"herdkv/internal/core"
	"herdkv/internal/kv"
	"herdkv/internal/sim"
	"herdkv/internal/telemetry"
)

// fakeKV is a scriptable origin: a map served after a fixed latency,
// with optional lease grants and an error that fails upcoming GETs.
type fakeKV struct {
	eng     *sim.Engine
	store   map[kv.Key][]byte
	latency sim.Time
	lease   sim.Time // when > 0, GET hits carry a lease of this TTL
	fail    error    // when set, GETs resolve as StatusTimeout with this error

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
	f.eng.After(f.latency, func() {
		r := f.get(key)
		if f.fail != nil {
			r = kv.Result{Key: key, IsGet: true, Status: kv.StatusTimeout, Err: f.fail, Latency: f.latency}
		}
		if cb != nil {
			cb(r)
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
	if len(c.entries) != 2 {
		t.Fatalf("resident = %d, want 2", len(c.entries))
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

// A parked reader waits on the filler's own Get for as long as that
// Get takes: here the origin answers after many TTLs with the retry
// budget's terminal timeout, and every parked reader gets that error
// exactly once, with the latency it waited, while nothing is cached.
func TestHerdWaitersShareLateTimeout(t *testing.T) {
	eng := sim.New()
	f := newFake(eng)
	f.store[k(8)] = []byte("never served")
	f.latency = 200 * sim.Microsecond
	f.fail = core.ErrTimedOut
	tel := telemetry.New()
	c := New(f, eng, tel, Config{TTL: 5 * sim.Microsecond})

	starts := []sim.Time{0, 10 * sim.Microsecond, 30 * sim.Microsecond}
	got := make([][]kv.Result, len(starts))
	for i, at := range starts {
		i := i
		eng.At(at, func() {
			if err := c.Get(k(8), func(r kv.Result) { got[i] = append(got[i], r) }); err != nil {
				t.Fatal(err)
			}
		})
	}
	eng.Run()

	if f.gets != 1 {
		t.Fatalf("origin GETs = %d, want 1 (the filler's)", f.gets)
	}
	if n := tel.Counter("cache.herd.waits").Value(); n != uint64(len(starts)-1) {
		t.Fatalf("herd.waits = %d, want %d", n, len(starts)-1)
	}
	for i, rs := range got {
		if len(rs) != 1 {
			t.Fatalf("reader %d called back %d times, want 1", i, len(rs))
		}
		r := rs[0]
		if r.Status != kv.StatusTimeout || !errors.Is(r.Err, core.ErrTimedOut) {
			t.Fatalf("reader %d got %v / %v, want the fill's timeout", i, r.Status, r.Err)
		}
		if want := f.latency - starts[i]; r.Latency != want {
			t.Fatalf("reader %d latency %v, want %v (its own wait)", i, r.Latency, want)
		}
	}
	if len(c.entries) != 0 || len(c.fills) != 0 {
		t.Fatalf("%d entries and %d fills left after a failed fill, want none", len(c.entries), len(c.fills))
	}
	// The next read goes to the origin again.
	f.fail = nil
	var next kv.Result
	c.Get(k(8), func(r kv.Result) { next = r })
	eng.Run()
	if f.gets != 2 || next.Status != kv.StatusHit {
		t.Fatalf("read after the failed fill: origin GETs %d, status %v; want 2 and a hit", f.gets, next.Status)
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
