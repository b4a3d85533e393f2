package fleet

import (
	"bytes"
	"fmt"
	"testing"

	"herdkv/internal/cluster"
	"herdkv/internal/core"
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
	return cfg
}

// newFleet builds nShards servers + nClients fleet clients on one
// cluster; each tweak edits the config first.
func newFleet(t *testing.T, nShards, nClients int, seed int64, tweaks ...func(*Config)) (*cluster.Cluster, *Deployment, []*Client) {
	t.Helper()
	cl := cluster.New(cluster.Apt(), nShards+nClients, seed)
	cfg := testConfig()
	for _, tweak := range tweaks {
		tweak(&cfg)
	}
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
	a, b, c := NewRing(7, 2, 4), NewRing(7, 2, 4), NewRing(8, 2, 4)
	sameAsB, sameAsC := true, true
	for i := uint64(1); i <= 500; i++ {
		k := kv.FromUint64(i)
		ra, rb, rc := a.Replicas(k, 2), b.Replicas(k, 2), c.Replicas(k, 2)
		if len(ra) != 2 || ra[0] == ra[1] {
			t.Fatalf("replica set %v not 2 distinct shards", ra)
		}
		if p := a.Replicas(k, 1); len(p) != 1 || p[0] != ra[0] {
			t.Fatalf("primary %v is not the head of %v", p, ra)
		}
		for j := range ra {
			if ra[j] != rb[j] {
				sameAsB = false
			}
			if ra[j] != rc[j] {
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

// TestRingBalance bounds every shard's replica load: on 16k keys at
// R=2 over 4 shards each shard holds its fair half of the keys within
// 3%.
func TestRingBalance(t *testing.T) {
	const keys = 16384
	_, d, _ := newFleet(t, 4, 0, 1)
	load := make([]int, 4)
	for i := uint64(0); i < keys; i++ {
		for _, s := range d.Replicas(kv.FromUint64(i)) {
			load[s]++
		}
	}
	fair := keys * 2 / 4
	for s, l := range load {
		if l < fair*97/100 || l > fair*103/100 {
			t.Fatalf("shard %d holds %d replicas, fair is %d (loads %v)", s, l, fair, load)
		}
	}
}

// TestRingHotKeysSpreadPrimaries is a regression test: when shard
// positions were hashed with the key hash's seed, the 64 hottest Zipf
// keys (FromUint64(0..63)) all had shard 0 as primary.
func TestRingHotKeysSpreadPrimaries(t *testing.T) {
	_, d, _ := newFleet(t, 4, 0, 1)
	count := make([]int, 4)
	for i := uint64(0); i < 64; i++ {
		count[d.Ring().Replicas(kv.FromUint64(i), 1)[0]]++
	}
	for s, c := range count {
		if c == 0 || c > 32 {
			t.Fatalf("primaries of keys 0..63 per shard = %v (shard %d)", count, s)
		}
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
	if c.Failed() != 0 {
		t.Fatalf("failed = %d on a healthy fleet", c.Failed())
	}
	// A healthy fleet reads one replica per GET.
	var gets uint64
	for id := 0; id < 3; id++ {
		g, _, _ := d.Server(id).Stats()
		gets += g
	}
	if gets != uint64(n) {
		t.Fatalf("%d reads asked %d replicas, want one each", n, gets)
	}
	if c.Inflight() != 0 {
		t.Fatalf("inflight = %d after drain", c.Inflight())
	}
}

// TestFleetFailoverOnCrash pins failover past a crashed primary: a
// read leaves the down primary out of its replica order and asks the
// next replica alone, so it is served without waiting out a retry
// timeout on the primary and without a reroute. At R=3 the third
// replica's server sees no GET, so a read that fanned out would fail
// here.
func TestFleetFailoverOnCrash(t *testing.T) {
	for _, rf := range []int{2, 3} {
		t.Run(fmt.Sprintf("R=%d", rf), func(t *testing.T) {
			cl, d, clients := newFleet(t, 3, 1, 1, func(cfg *Config) { cfg.Replication = rf })
			c := clients[0]
			key := kv.FromUint64(7)
			if err := d.Preload(key, PreloadValue(nil, []byte("v"))); err != nil {
				t.Fatal(err)
			}
			reps := d.Replicas(key)
			d.Server(reps[0]).Crash()
			var res kv.Result
			c.Get(key, func(r kv.Result) { res = r })
			cl.Eng.Run()
			if res.Err != nil || res.Status != kv.StatusHit || string(res.Value) != "v" {
				t.Fatalf("failover get = %+v", res)
			}
			if limit := d.cfg.Herd.RetryTimeout; res.Latency >= limit {
				t.Fatalf("failover get took %v, want under the %v retry timeout", res.Latency, limit)
			}
			if c.Reroutes() != 0 || c.Failed() != 0 {
				t.Fatalf("reroutes=%d failed=%d, want 0 and 0", c.Reroutes(), c.Failed())
			}
			if gets, _, _ := d.Server(reps[1]).Stats(); gets != 1 {
				t.Fatalf("second replica served %d GETs, want the read", gets)
			}
			for _, id := range reps[2:] {
				if gets, _, _ := d.Server(id).Stats(); gets != 0 {
					t.Fatalf("replica %d past the serving one saw %d GETs: the read fanned out", id, gets)
				}
			}
		})
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

func TestFleetDeterministicReplay(t *testing.T) {
	run := func() (uint64, uint64, sim.Time) {
		cl, d, clients := newFleet(t, 3, 2, 5)
		c0, c1 := clients[0], clients[1]
		key := kv.FromUint64(3)
		d.Preload(key, []byte("w"))
		var served uint64
		count := func(r kv.Result) {
			if r.Err == nil {
				served++
			}
		}
		for i := 1; i <= 40; i++ {
			c0.Put(kv.FromUint64(uint64(i)), []byte{byte(i)}, count)
			c1.Get(kv.FromUint64(uint64(i%7+1)), count)
		}
		cl.Eng.Run()
		return served, c0.Failed() + c1.Failed(), cl.Eng.Now()
	}
	ca, ia, ta := run()
	cb, ib, tb := run()
	if ca != cb || ia != ib || ta != tb {
		t.Fatalf("replay diverged: (%d,%d,%v) vs (%d,%d,%v)", ca, ia, ta, cb, ib, tb)
	}
}

func TestFleetValidation(t *testing.T) {
	if _, err := NewDeployment(nil, testConfig()); err == nil {
		t.Fatal("empty deployment accepted")
	}
	cl, _, clients := newFleet(t, 2, 1, 1)
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
	// An empty value is refused before the fan-out: issued to the
	// replicas, each would reject it and the fleet would suspect them.
	if err := c.Put(kv.FromUint64(1), nil, nil); err != ErrEmptyValue {
		t.Fatalf("empty put: %v", err)
	}
	issued := c.Inflight()
	cl.Eng.Run()
	if issued != 0 || c.Suspected() != 0 {
		t.Fatalf("rejected puts issued %d ops and suspected %d shards", issued, c.Suspected())
	}
	if cfg := (&Config{}); true {
		cfg.setDefaults()
		if cfg.Replication != 2 || cfg.MigrationBatch != 64 {
			t.Fatalf("defaults: %+v", cfg)
		}
	}
	// Replica sets are ranked in fixed-size arrays: R is clamped to them.
	if cfg := (&Config{Replication: maxDepth + 1}); true {
		cfg.setDefaults()
		if cfg.Replication != maxDepth {
			t.Fatalf("Replication %d not clamped to %d", cfg.Replication, maxDepth)
		}
	}
}

// TestBusyNeverSuspects pins where overload pushback is handled: a
// browned-out primary's busy responses are absorbed by the member
// client's hinted resubmits, so on fleet defaults every read completes
// served, no probation starts and no read is steered to the replica —
// busy is backpressure from a live shard, and failing over on it would
// churn the fleet exactly when it can least afford it.
func TestBusyNeverSuspects(t *testing.T) {
	cl, d, clients := newFleet(t, 2, 1, 11)
	c := clients[0]
	key := kv.FromUint64(77)
	val := []byte("brownout value")
	if err := d.Preload(key, val); err != nil {
		t.Fatal(err)
	}
	primary := d.Replicas(key)[0]
	// Brown out only the primary: queue cap 1 sheds every request that
	// arrives while one is in service.
	d.Server(primary).SetAdmissionLimit(1)

	const n = 16
	served := 0
	for i := 0; i < n; i++ {
		c.Get(key, func(r kv.Result) {
			if r.Err != nil {
				t.Errorf("get failed: %v (status %v)", r.Err, r.Status)
				return
			}
			if !bytes.Equal(r.Value, val) {
				t.Errorf("get value %q", r.Value)
			}
			served++
		})
	}
	cl.Eng.Run()

	if served != n {
		t.Fatalf("served %d of %d reads", served, n)
	}
	var busy uint64
	for _, sub := range c.subs {
		busy += sub.(*core.Client).BusyResponses()
	}
	if busy == 0 {
		t.Fatal("the browned-out primary never pushed back")
	}
	secondary, _, _ := d.Server(d.Replicas(key)[1]).Stats()
	if f, s := c.Failed(), c.Suspected(); f != 0 || s != 0 || secondary != 0 {
		t.Fatalf("%d failed, %d suspected, %d secondary reads; busy must be absorbed below the fleet", f, s, secondary)
	}
}

// TestTimeoutStillSuspects pins the blackout path: a terminal timeout
// against a primary that is up but cut off from the client starts a
// probation, the read is rerouted and the replica serves.
func TestTimeoutStillSuspects(t *testing.T) {
	cl, d, clients := newScheduledFleet(t, testConfig(), "blackout link=2>0 from=0 until=1ms both", 2, 1, 12)
	c := clients[0]
	key := keyOnShard(t, d, 0, 1)
	if err := d.Preload(key, PreloadValue(nil, []byte("v"))); err != nil {
		t.Fatal(err)
	}

	var res kv.Result
	c.Get(key, func(r kv.Result) { res = r })
	cl.Eng.Run()
	if res.Err != nil || string(res.Value) != "v" {
		t.Fatalf("replica did not serve with the primary cut off: %+v", res)
	}
	if c.Suspected() == 0 || c.Reroutes() == 0 {
		t.Fatalf("suspected=%d reroutes=%d: the terminal timeout no longer suspects the shard", c.Suspected(), c.Reroutes())
	}
}
