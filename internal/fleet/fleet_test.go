package fleet

import (
	"bytes"
	"testing"

	"herdkv/internal/cluster"
	"herdkv/internal/kv"
	"herdkv/internal/mica"
	"herdkv/internal/sim"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Herd.NS = 4
	cfg.Herd.MaxClients = 8
	cfg.Herd.Window = 4
	cfg.Herd.Mica = mica.Config{IndexBuckets: 1 << 10, BucketSlots: 8, LogBytes: 1 << 20}
	// Long probation so tests can observe it before the engine drains.
	cfg.Probation = 10 * sim.Millisecond
	return cfg
}

// newFleet builds nShards servers + nClients fleet clients on one
// cluster (plus one spare machine for AddShard tests).
func newFleet(t *testing.T, nShards, nClients int, seed int64) (*cluster.Cluster, *Deployment, []*Client) {
	t.Helper()
	cl := cluster.New(cluster.Apt(), nShards+nClients+1, seed)
	cfg := testConfig()
	machines := make([]*cluster.Machine, nShards)
	for i := range machines {
		machines[i] = cl.Machine(i)
	}
	d, err := NewDeployment(machines, cfg)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*Client, nClients)
	for i := range clients {
		clients[i], err = d.ConnectClient(cl.Machine(nShards + i))
		if err != nil {
			t.Fatal(err)
		}
	}
	return cl, d, clients
}

func TestRingPlacement(t *testing.T) {
	build := func(seed uint64) *Ring {
		r := NewRing(seed, 32)
		for s := 0; s < 4; s++ {
			r = r.WithShard(s)
		}
		return r
	}
	a, b, c := build(7), build(7), build(8)
	sameAsB, sameAsC := true, true
	for i := uint64(1); i <= 500; i++ {
		k := kv.FromUint64(i)
		ra, rb, rc := a.Replicas(k, 2), b.Replicas(k, 2), c.Replicas(k, 2)
		if len(ra) != 2 || ra[0] == ra[1] {
			t.Fatalf("replica set %v not 2 distinct shards", ra)
		}
		for j := range ra {
			if ra[j] != rb[j] {
				sameAsB = false
			}
			if j < len(rc) && ra[j] != rc[j] {
				sameAsC = false
			}
		}
	}
	if !sameAsB {
		t.Fatal("same seed produced different placement")
	}
	if sameAsC {
		t.Fatal("different seeds produced identical placement")
	}
}

func TestRingMembershipChangeMovesFewKeys(t *testing.T) {
	r4 := NewRing(3, 64)
	for s := 0; s < 4; s++ {
		r4 = r4.WithShard(s)
	}
	r5 := r4.WithShard(4)
	moved := 0
	n := 2000
	for i := 1; i <= n; i++ {
		k := kv.FromUint64(uint64(i))
		if r4.Primary(k) != r5.Primary(k) {
			moved++
		}
	}
	// Consistent hashing moves ~1/5 of primaries when growing 4 -> 5;
	// modulo hashing would move ~4/5.
	if moved > n/3 {
		t.Fatalf("adding a shard moved %d/%d primaries (want ~%d)", moved, n, n/5)
	}
	if moved == 0 {
		t.Fatal("adding a shard moved nothing")
	}
	if got := r5.WithoutShard(4); got.Size() != 4 || got.Has(4) {
		t.Fatalf("WithoutShard left %v", got.Shards())
	}
}

func TestFleetRoundTripAndReplication(t *testing.T) {
	cl, d, clients := newFleet(t, 3, 1, 1)
	c := clients[0]
	n := 60
	acked := 0
	for i := 1; i <= n; i++ {
		c.Put(kv.FromUint64(uint64(i)), []byte{byte(i)}, func(r kv.Result) {
			if r.Err == nil {
				acked++
			}
		})
	}
	cl.Eng.Run()
	if acked != n {
		t.Fatalf("puts acked = %d/%d", acked, n)
	}
	// Fan-out writes: every replica holds every key.
	for i := 1; i <= n; i++ {
		key := kv.FromUint64(uint64(i))
		for _, id := range d.Replicas(key) {
			part := d.Server(id).Partition(mica.Partition(key, testConfig().Herd.NS))
			if _, ok := part.Get(key); !ok {
				t.Fatalf("key %d missing on replica %d", i, id)
			}
		}
	}
	got := 0
	for i := 1; i <= n; i++ {
		i := i
		c.Get(kv.FromUint64(uint64(i)), func(r kv.Result) {
			if r.Status == kv.StatusHit && bytes.Equal(r.Value, []byte{byte(i)}) {
				got++
			}
		})
	}
	cl.Eng.Run()
	if got != n {
		t.Fatalf("gets = %d/%d", got, n)
	}
	if c.Failed() != 0 || c.Completed() != uint64(2*n) || c.Issued() != uint64(2*n) {
		t.Fatalf("counters: issued=%d completed=%d failed=%d", c.Issued(), c.Completed(), c.Failed())
	}
	if c.ReplicaReads() != 0 {
		t.Fatalf("healthy fleet served %d reads off-primary", c.ReplicaReads())
	}
	if c.Inflight() != 0 {
		t.Fatalf("inflight = %d after drain", c.Inflight())
	}
}

func TestFleetDelete(t *testing.T) {
	cl, _, clients := newFleet(t, 3, 1, 1)
	c := clients[0]
	key := kv.FromUint64(99)
	var gone kv.Result
	c.Put(key, []byte("x"), func(kv.Result) {
		c.Delete(key, func(kv.Result) {
			c.Get(key, func(r kv.Result) { gone = r })
		})
	})
	cl.Eng.Run()
	if gone.Status != kv.StatusMiss {
		t.Fatalf("after delete, get = %+v", gone)
	}
}

func TestFleetFailoverOnCrash(t *testing.T) {
	cl, d, clients := newFleet(t, 3, 1, 1)
	c := clients[0]
	key := kv.FromUint64(7)
	if err := d.Preload(key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	primary := d.Replicas(key)[0]
	d.Server(primary).Crash()
	var res kv.Result
	c.Get(key, func(r kv.Result) { res = r })
	cl.Eng.Run()
	if res.Err != nil || res.Status != kv.StatusHit || string(res.Value) != "v" {
		t.Fatalf("failover get = %+v", res)
	}
	if c.Reroutes() == 0 || c.ReplicaReads() == 0 {
		t.Fatalf("reroutes=%d replicaReads=%d, want both > 0", c.Reroutes(), c.ReplicaReads())
	}
	if c.Failed() != 0 {
		t.Fatalf("failed = %d", c.Failed())
	}
	// Probation: the next read for the same key skips the dead primary
	// without a fresh timeout (no additional reroute).
	before := c.Reroutes()
	var again kv.Result
	c.Get(key, func(r kv.Result) { again = r })
	cl.Eng.Run()
	if again.Status != kv.StatusHit {
		t.Fatalf("probation get = %+v", again)
	}
	if c.Reroutes() != before {
		t.Fatalf("suspected primary was retried: reroutes %d -> %d", before, c.Reroutes())
	}
}

func TestFleetAllReplicasDown(t *testing.T) {
	cl, d, clients := newFleet(t, 2, 1, 1)
	c := clients[0]
	key := kv.FromUint64(11)
	d.Preload(key, []byte("v"))
	for _, id := range d.Replicas(key) {
		d.Server(id).Crash()
	}
	var res kv.Result
	c.Get(key, func(r kv.Result) { res = r })
	cl.Eng.Run()
	if res.Err == nil {
		t.Fatalf("get with all replicas down succeeded: %+v", res)
	}
	if c.Failed() != 1 {
		t.Fatalf("failed = %d, want 1", c.Failed())
	}
}

func TestFleetAddShardMigration(t *testing.T) {
	cl, d, clients := newFleet(t, 2, 1, 1)
	c := clients[0]
	n := 80
	for i := 1; i <= n; i++ {
		c.Put(kv.FromUint64(uint64(i)), []byte{byte(i)}, nil)
	}
	cl.Eng.Run()
	migrated := false
	id, err := d.AddShard(cl.Machine(cl.Size()-1), func() { migrated = true })
	if err != nil {
		t.Fatal(err)
	}
	if d.MigrationActive() != true {
		t.Fatal("migration not active after AddShard")
	}
	if _, err := d.AddShard(cl.Machine(cl.Size()-1), nil); err != ErrMigrating {
		t.Fatalf("concurrent AddShard: %v", err)
	}
	cl.Eng.Run()
	if !migrated || d.MigrationActive() {
		t.Fatal("migration did not complete")
	}
	if !d.Ring().Has(id) {
		t.Fatal("ring missing new shard after migration")
	}
	// Every key now replicated on the new shard is present there, and
	// all keys remain readable through the client.
	onNew := 0
	for i := 1; i <= n; i++ {
		key := kv.FromUint64(uint64(i))
		for _, rep := range d.Replicas(key) {
			if rep != id {
				continue
			}
			onNew++
			part := d.Server(id).Partition(mica.Partition(key, testConfig().Herd.NS))
			if _, ok := part.Get(key); !ok {
				t.Fatalf("key %d not migrated to new shard", i)
			}
		}
	}
	if onNew == 0 {
		t.Fatal("new shard owns no keys")
	}
	got := 0
	for i := 1; i <= n; i++ {
		c.Get(kv.FromUint64(uint64(i)), func(r kv.Result) {
			if r.Status == kv.StatusHit {
				got++
			}
		})
	}
	cl.Eng.Run()
	if got != n {
		t.Fatalf("post-migration gets = %d/%d", got, n)
	}
	if c.Failed() != 0 {
		t.Fatalf("failed = %d", c.Failed())
	}
}

func TestFleetRemoveShard(t *testing.T) {
	cl, d, clients := newFleet(t, 3, 1, 1)
	c := clients[0]
	n := 80
	for i := 1; i <= n; i++ {
		c.Put(kv.FromUint64(uint64(i)), []byte{byte(i)}, nil)
	}
	cl.Eng.Run()
	removed := false
	if err := d.RemoveShard(0, func() { removed = true }); err != nil {
		t.Fatal(err)
	}
	cl.Eng.Run()
	if !removed || d.Ring().Has(0) || d.Shards() != 2 {
		t.Fatalf("removal incomplete: removed=%v ring=%v live=%d", removed, d.Ring().Shards(), d.Shards())
	}
	gets, _, puts := d.Server(0).Stats()
	before := gets + puts
	got := 0
	for i := 1; i <= n; i++ {
		c.Get(kv.FromUint64(uint64(i)), func(r kv.Result) {
			if r.Status == kv.StatusHit {
				got++
			}
		})
	}
	cl.Eng.Run()
	if got != n {
		t.Fatalf("post-removal gets = %d/%d (failed=%d)", got, n, c.Failed())
	}
	gets, _, puts = d.Server(0).Stats()
	if gets+puts != before {
		t.Fatal("removed shard still receives traffic")
	}
}

func TestFleetMultiGet(t *testing.T) {
	cl, d, clients := newFleet(t, 3, 1, 1)
	c := clients[0]
	n := 24
	keys := make([]kv.Key, n)
	for i := range keys {
		keys[i] = kv.FromUint64(uint64(i + 1))
		if err := d.Preload(keys[i], []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var out []kv.Result
	if err := c.MultiGet(keys, func(rs []kv.Result) { out = rs }); err != nil {
		t.Fatal(err)
	}
	cl.Eng.Run()
	if len(out) != n {
		t.Fatalf("multiget returned %d/%d results", len(out), n)
	}
	for i, r := range out {
		if r.Status != kv.StatusHit || !bytes.Equal(r.Value, []byte{byte(i)}) {
			t.Fatalf("result %d = %+v", i, r)
		}
		if r.Key != keys[i] {
			t.Fatalf("result %d out of order: %v", i, r.Key)
		}
	}
}

func TestFleetDeterministicReplay(t *testing.T) {
	run := func() (uint64, uint64, sim.Time) {
		cl, d, clients := newFleet(t, 3, 2, 5)
		c0, c1 := clients[0], clients[1]
		key := kv.FromUint64(3)
		d.Preload(key, []byte("w"))
		for i := 1; i <= 40; i++ {
			c0.Put(kv.FromUint64(uint64(i)), []byte{byte(i)}, nil)
			c1.Get(kv.FromUint64(uint64(i%7+1)), nil)
		}
		cl.Eng.Run()
		return c0.Completed() + c1.Completed(), c0.Issued() + c1.Issued(), cl.Eng.Now()
	}
	ca, ia, ta := run()
	cb, ib, tb := run()
	if ca != cb || ia != ib || ta != tb {
		t.Fatalf("replay diverged: (%d,%d,%v) vs (%d,%d,%v)", ca, ia, ta, cb, ib, tb)
	}
}

func TestFleetValidation(t *testing.T) {
	cl, d, clients := newFleet(t, 2, 1, 1)
	c := clients[0]
	var zero kv.Key
	if err := c.Get(zero, nil); err == nil {
		t.Fatal("zero-key get accepted")
	}
	if err := c.Put(zero, []byte("x"), nil); err == nil {
		t.Fatal("zero-key put accepted")
	}
	if err := c.Put(kv.FromUint64(1), make([]byte, mica.MaxValueSize+1), nil); err != ErrValueTooLarge {
		t.Fatalf("oversized put: %v", err)
	}
	if err := d.RemoveShard(99, nil); err != ErrUnknownShard {
		t.Fatalf("remove unknown: %v", err)
	}
	_ = cl
	if cfg := (&Config{}); true {
		cfg.setDefaults()
		if cfg.Replication != 2 || cfg.MigrationBatch != 64 {
			t.Fatalf("defaults: %+v", cfg)
		}
	}
}
