package fleet

import (
	"testing"

	"herdkv/internal/cluster"
	"herdkv/internal/kv"
	"herdkv/internal/sim"
)

// TestHotTrackerWindowDecay pins the two-epoch sliding window: a key's
// count survives exactly one epoch rotation and then ages out, so a
// cooled key stops classifying hot.
func TestHotTrackerWindowDecay(t *testing.T) {
	h := newHotTracker(4, 5, 100*sim.Microsecond)
	k := kv.FromUint64(1)
	var e *hotEntry
	for i := 0; i < 6; i++ {
		e = h.observe(k, sim.Time(i))
	}
	if !h.isHot(e) {
		t.Fatalf("count %d under threshold 5 after 6 observes", e.count())
	}
	// One window later the count has shifted to prev: still hot.
	e = h.observe(k, 150*sim.Microsecond)
	if !h.isHot(e) {
		t.Fatalf("key cooled after one window (count %d)", e.count())
	}
	// Two idle windows later both epochs have drained: cold again, and
	// the idle gap must not have wedged the epoch clock.
	e = h.observe(k, 500*sim.Microsecond)
	if h.isHot(e) || e.count() != 1 {
		t.Fatalf("key still hot after idle gap (count %d)", e.count())
	}
}

// TestHotTrackerEviction pins the space-saving move: a full table
// evicts its coldest resident deterministically (first minimum in
// insertion order) and the newcomer inherits the evicted count, so a
// genuinely hot newcomer can climb past lukewarm residents.
func TestHotTrackerEviction(t *testing.T) {
	h := newHotTracker(2, 100, sim.Second)
	a, b, c := kv.FromUint64(1), kv.FromUint64(2), kv.FromUint64(3)
	for i := 0; i < 3; i++ {
		h.observe(a, 0)
	}
	h.observe(b, 0) // b: count 1, the table is now full
	e := h.observe(c, 0)
	if e.key != c || e.count() != 2 {
		t.Fatalf("newcomer entry %+v, want key c with inherited count 2", e)
	}
	for i := range h.entries {
		if h.entries[i].key == b {
			t.Fatal("eviction picked a instead of the colder b")
		}
	}
}

// TestHotKeyWideningSpreadsReads drives a single-key hammer at a
// 3-way-replicated fleet with detection on: once the key classifies
// hot, reads rotate across the healthy replica set instead of all
// landing on the primary.
func TestHotKeyWideningSpreadsReads(t *testing.T) {
	cl := cluster.New(cluster.Apt(), 4, 1)
	cfg := testConfig()
	cfg.Replication = 3
	cfg.HotKeyTrack = 8
	cfg.HotKeyThreshold = 8
	d, err := NewDeployment(
		[]*cluster.Machine{cl.Machine(0), cl.Machine(1), cl.Machine(2)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := d.ConnectClient(cl.Machine(3))
	if err != nil {
		t.Fatal(err)
	}
	key := kv.FromUint64(42)
	if err := d.Preload(key, []byte("hot")); err != nil {
		t.Fatal(err)
	}

	const n = 48
	hits := 0
	var read func(i int)
	read = func(i int) {
		if i == n {
			return
		}
		c.Get(key, func(r kv.Result) {
			if r.Status == kv.StatusHit {
				hits++
			}
			read(i + 1)
		})
	}
	read(0)
	cl.Eng.Run()

	if hits != n {
		t.Fatalf("%d of %d hot reads hit", hits, n)
	}
	// Threshold 8 of 48 reads: roughly the last 40 rotate over 3
	// replicas, so about two thirds of those start off-primary.
	if c.HotWidened() < 20 {
		t.Fatalf("HotWidened = %d, want >= 20 of %d post-threshold reads", c.HotWidened(), n)
	}
	if c.ReplicaReads() < 20 {
		t.Fatalf("ReplicaReads = %d, want the widened reads served by replicas", c.ReplicaReads())
	}
	if c.Failed() != 0 {
		t.Fatalf("Failed = %d on a healthy fleet", c.Failed())
	}
}

// TestHotKeyWideningOffByDefault pins the default: with HotKeyTrack
// unset the same hammer stays primary-first, so widening can never
// surprise a deployment that didn't ask for it. A versioned fleet never
// widens even with tracking on: only its primary may be read alone.
func TestHotKeyWideningOffByDefault(t *testing.T) {
	versioned := testConfig()
	versioned.Versioned = true
	versioned.Replication = 3
	versioned.HotKeyTrack, versioned.HotKeyThreshold = 8, 8
	for _, tc := range []struct {
		name  string
		cfg   Config
		value []byte
	}{
		{"default", testConfig(), []byte("hot")},
		{"versioned, tracking on", versioned, append(kv.AppendVersion(nil, kv.Version{}, false), "hot"...)},
	} {
		cl, d, clients := newFleetWith(t, tc.cfg, 3, 1, 1)
		c := clients[0]
		key := kv.FromUint64(42)
		if err := d.Preload(key, tc.value); err != nil {
			t.Fatal(err)
		}
		hits := 0
		for i := 0; i < 24; i++ {
			if err := c.Get(key, func(r kv.Result) {
				if r.Status == kv.StatusHit {
					hits++
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		cl.Eng.Run()
		if hits != 24 {
			t.Fatalf("%s: %d of 24 reads hit", tc.name, hits)
		}
		if c.HotWidened() != 0 || c.ReplicaReads() != 0 {
			t.Fatalf("%s: widened=%d replicaReads=%d, want 0/0",
				tc.name, c.HotWidened(), c.ReplicaReads())
		}
	}
}
