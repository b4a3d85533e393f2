package fleet

import (
	"bytes"
	"errors"
	"testing"

	"herdkv/internal/cluster"
	"herdkv/internal/kv"
	"herdkv/internal/mica"
	"herdkv/internal/sim"
)

// newVersionedFleet builds a versioned deployment on the fleet test
// scaffolding.
func newVersionedFleet(t *testing.T, nShards, nClients int, seed int64) (*cluster.Cluster, *Deployment, []*Client) {
	t.Helper()
	cl := cluster.New(cluster.Apt(), nShards+nClients+1, seed)
	cfg := testConfig()
	cfg.Versioned = true
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

// keyOnShard finds a key whose replica set starts at primary (and, when
// secondary >= 0, whose second replica is secondary).
func keyOnShard(t *testing.T, d *Deployment, primary, secondary int) kv.Key {
	t.Helper()
	for i := uint64(1); i < 4096; i++ {
		k := kv.FromUint64(i)
		reps := d.Replicas(k)
		if len(reps) >= 2 && reps[0] == primary && (secondary < 0 || reps[1] == secondary) {
			return k
		}
	}
	t.Fatal("no key found for requested placement")
	return kv.Key{}
}

// stampedValue builds a version-prefixed stored value for direct
// server-side injection.
func stampedValue(epoch int64, seq uint64, payload string) []byte {
	v := kv.AppendVersion(nil, kv.Version{Epoch: epoch, Seq: seq}, false)
	return append(v, payload...)
}

func TestVersionedRoundTrip(t *testing.T) {
	cl, _, clients := newVersionedFleet(t, 3, 1, 11)
	c := clients[0]
	key := kv.FromUint64(42)
	val := []byte("versioned fleet value")

	var put, got kv.Result
	c.Put(key, val, func(r kv.Result) {
		put = r
		c.Get(key, func(r kv.Result) { got = r })
	})
	cl.Eng.Run()

	if put.Err != nil || put.Status != kv.StatusHit {
		t.Fatalf("put = %+v", put)
	}
	if got.Err != nil || got.Status != kv.StatusHit || !bytes.Equal(got.Value, val) {
		t.Fatalf("get = %+v (value %q)", got, got.Value)
	}
}

// TestPartialWriteCounter pins satellite fix 1: a legacy (first-ack)
// write that loses a straggler replica still reports success but must
// count fleet.writes.partial — divergence becomes visible.
func TestPartialWriteCounter(t *testing.T) {
	cl, d, clients := newFleet(t, 3, 1, 21)
	c := clients[0]
	key := keyOnShard(t, d, 0, 1)

	d.Server(1).Crash()
	var put kv.Result
	if err := c.Put(key, []byte("solo"), func(r kv.Result) { put = r }); err != nil {
		t.Fatal(err)
	}
	cl.Eng.Run()

	if put.Err != nil {
		t.Fatalf("legacy partial write must still succeed: %+v", put)
	}
	if c.PartialWrites() != 1 {
		t.Fatalf("PartialWrites = %d, want 1", c.PartialWrites())
	}
}

// TestVersionedPartialWriteFails pins the versioned contract: a write
// is successful only when EVERY replica acks; a straggler failure
// surfaces as ErrPartialWrite.
func TestVersionedPartialWriteFails(t *testing.T) {
	cl, d, clients := newVersionedFleet(t, 3, 1, 21)
	c := clients[0]
	key := keyOnShard(t, d, 0, 1)

	d.Server(1).Crash()
	var put kv.Result
	if err := c.Put(key, []byte("solo"), func(r kv.Result) { put = r }); err != nil {
		t.Fatal(err)
	}
	cl.Eng.Run()

	if !errors.Is(put.Err, ErrPartialWrite) {
		t.Fatalf("versioned partial write = %+v, want ErrPartialWrite", put)
	}
	if c.PartialWrites() != 1 {
		t.Fatalf("PartialWrites = %d, want 1", c.PartialWrites())
	}
}

// TestReadRepairBackfill pins the read path: a replica caught behind
// the winning version is back-filled with the winner during the read.
// Versioned and ReadRepair are one switch, so setting either alone
// repairs.
func TestReadRepairBackfill(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*Config)
	}{
		{"versioned", func(cfg *Config) { cfg.Versioned = true }},
		{"read_repair", func(cfg *Config) { cfg.ReadRepair = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.set(&cfg)
			cl, d, clients := newFleetWith(t, cfg, 3, 1, 31)
			c := clients[0]
			key := keyOnShard(t, d, 0, 1)
			fresh := stampedValue(int64(sim.Millisecond), 1, "fresh")

			var put kv.Result
			c.Put(key, []byte("orig"), func(r kv.Result) { put = r })
			cl.Eng.Run()
			if put.Err != nil {
				t.Fatalf("seed put = %+v", put)
			}
			// Inject divergence: shard 0 alone advances to a newer version.
			if err := d.Server(0).Preload(key, fresh); err != nil {
				t.Fatal(err)
			}

			var got kv.Result
			c.Get(key, func(r kv.Result) { got = r })
			cl.Eng.Run()

			if got.Err != nil || got.Status != kv.StatusHit || string(got.Value) != "fresh" {
				t.Fatalf("get = %+v (value %q), want the newest version", got, got.Value)
			}
			if c.StaleObserved() == 0 || c.RepairsIssued() == 0 || c.RepairsApplied() == 0 {
				t.Fatalf("repair counters: stale=%d issued=%d applied=%d",
					c.StaleObserved(), c.RepairsIssued(), c.RepairsApplied())
			}
			stored, ok := shardHolds(d, 1, key)
			if !ok || !bytes.Equal(stored, fresh) {
				t.Fatalf("replica 1 not back-filled: ok=%v stored=%x", ok, stored)
			}
		})
	}
}

// TestCrashedReplicaStaleRead is the satellite regression pinning
// read-repair behavior: with a divergent replica set and the fresh
// replica crashed, the legacy fleet serves the stale survivor as a
// plain hit, while a read-repairing fleet converged the survivor on
// the first read and keeps answering fresh after the crash.
func TestCrashedReplicaStaleRead(t *testing.T) {
	fresh := stampedValue(int64(sim.Millisecond), 1, "fresh")

	t.Run("legacy_serves_stale", func(t *testing.T) {
		cl, d, clients := newFleet(t, 3, 1, 41)
		c := clients[0]
		key := keyOnShard(t, d, 0, 1)
		var put kv.Result
		c.Put(key, []byte("orig"), func(r kv.Result) { put = r })
		cl.Eng.Run()
		if put.Err != nil {
			t.Fatalf("seed put = %+v", put)
		}
		// Shard 0 alone advances, then dies.
		if err := d.Server(0).Preload(key, []byte("newer")); err != nil {
			t.Fatal(err)
		}
		d.Server(0).Crash()
		var got kv.Result
		c.Get(key, func(r kv.Result) { got = r })
		cl.Eng.Run()
		if got.Err != nil || string(got.Value) != "orig" {
			t.Fatalf("expected the legacy fleet to serve the stale survivor, got %+v (%q)", got, got.Value)
		}
	})

	t.Run("repair_converges_before_crash", func(t *testing.T) {
		cl, d, clients := newVersionedFleet(t, 3, 1, 41)
		c := clients[0]
		key := keyOnShard(t, d, 0, 1)
		var put kv.Result
		c.Put(key, []byte("orig"), func(r kv.Result) { put = r })
		cl.Eng.Run()
		if put.Err != nil {
			t.Fatalf("seed put = %+v", put)
		}
		if err := d.Server(0).Preload(key, fresh); err != nil {
			t.Fatal(err)
		}
		// The read observes the divergence and back-fills shard 1...
		var first kv.Result
		c.Get(key, func(r kv.Result) { first = r })
		cl.Eng.Run()
		if first.Err != nil || string(first.Value) != "fresh" {
			t.Fatalf("first get = %+v (%q)", first, first.Value)
		}
		// ...so the fresh state survives shard 0's crash.
		d.Server(0).Crash()
		var got kv.Result
		c.Get(key, func(r kv.Result) { got = r })
		cl.Eng.Run()
		if got.Err != nil || string(got.Value) != "fresh" {
			t.Fatalf("read after crash = %+v (%q), want the repaired value", got, got.Value)
		}
	})
}

// TestAntiEntropySweepConverges pins the background path: a partial
// write enqueues its key, and the sweep merges replicas to the highest
// stamp without any read touching the key.
func TestAntiEntropySweepConverges(t *testing.T) {
	cl, d, clients := newVersionedFleet(t, 3, 1, 51)
	c := clients[0]
	key := keyOnShard(t, d, 0, 1)
	fresh := stampedValue(int64(sim.Millisecond), 1, "fresh")

	var put kv.Result
	c.Put(key, []byte("orig"), func(r kv.Result) { put = r })
	cl.Eng.Run()
	if put.Err != nil {
		t.Fatalf("seed put = %+v", put)
	}
	if err := d.Server(0).Preload(key, fresh); err != nil {
		t.Fatal(err)
	}
	d.EnqueueRepair(key)
	if len(d.aeQueue) != 1 {
		t.Fatalf("pending = %d, want 1", len(d.aeQueue))
	}
	cl.Eng.Run()
	if len(d.aeQueue) != 0 {
		t.Fatalf("queue did not drain: %d pending", len(d.aeQueue))
	}
	stored, ok := d.Server(1).Partition(mica.Partition(key, d.cfg.Herd.NS)).Get(key)
	if !ok || !bytes.Equal(stored, fresh) {
		t.Fatalf("sweep did not back-fill replica 1: ok=%v stored=%x", ok, stored)
	}
}

// TestReadOrderSuspectTieBreak pins satellite fix 2: when every replica
// is suspect, the order is by probation expiry (soonest-recovering
// first), not ring order, and equal expiries break ties by shard id.
func TestReadOrderSuspectTieBreak(t *testing.T) {
	_, _, clients := newFleet(t, 3, 1, 61)
	c := clients[0]
	now := c.now()

	// All suspect, distinct expiries out of ring order.
	c.suspect[0] = now + 30*sim.Microsecond
	c.suspect[1] = now + 10*sim.Microsecond
	c.suspect[2] = now + 20*sim.Microsecond
	got := c.readOrder(nil, []int{0, 1, 2})
	want := []int{1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("readOrder = %v, want %v (probation expiry order)", got, want)
		}
	}

	// Equal expiries: deterministic id order regardless of input order.
	for i := range c.suspect {
		c.suspect[i] = now + 10*sim.Microsecond
	}
	got = c.readOrder(nil, []int{2, 0, 1})
	want = []int{0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("readOrder = %v, want %v (id tie-break)", got, want)
		}
	}

	// A healthy replica still outranks every suspect one.
	c.suspect[1] = 0
	got = c.readOrder(nil, []int{0, 1, 2})
	if got[0] != 1 {
		t.Fatalf("readOrder = %v, want healthy shard 1 first", got)
	}
}
