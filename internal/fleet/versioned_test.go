package fleet

import (
	"bytes"
	"errors"
	"testing"

	"herdkv/internal/cluster"
	"herdkv/internal/fault"
	"herdkv/internal/kv"
	"herdkv/internal/mica"
	"herdkv/internal/sim"
)

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

// withLeases makes every member server grant a freshness lease with each
// GET hit, which a read must hand to its caller.
func withLeases(cfg *Config) { cfg.Herd.LeaseTTL = 20 * sim.Microsecond }

func TestVersionedRoundTrip(t *testing.T) {
	cl, _, clients := newFleet(t, 3, 1, 11, withLeases)
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
	if got.Lease <= 0 {
		t.Fatalf("get dropped the primary's lease: %+v", got)
	}
}

// TestPartialWriteCounter pins the view rule's excused failure: a write
// whose other replica was down when it was issued is out of that
// replica's view, so it reports success, yet it counts
// fleet.writes.partial and queues its key for reconciliation.
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
		t.Fatalf("a write that only a down replica missed must succeed: %+v", put)
	}
	if c.PartialWrites() != 1 {
		t.Fatalf("PartialWrites = %d, want 1", c.PartialWrites())
	}
	if audited, _ := d.AntiEntropyStats(); audited == 0 {
		t.Fatal("the write's key was never reconciled")
	}
}

// TestVersionedPartialWriteFails pins the other half of the view rule:
// a replica that is up and settled but cut off from the client is in
// the view, so its terminal timeout fails the write with
// ErrPartialWrite.
func TestVersionedPartialWriteFails(t *testing.T) {
	cl, d, clients := newScheduledFleet(t, testConfig(), "blackout link=3>1 from=0 until=1ms both", 3, 1, 21)
	c := clients[0]
	key := keyOnShard(t, d, 0, 1)

	var put kv.Result
	if err := c.Put(key, []byte("solo"), func(r kv.Result) { put = r }); err != nil {
		t.Fatal(err)
	}
	cl.Eng.Run()

	if !errors.Is(put.Err, ErrPartialWrite) {
		t.Fatalf("partial write = %+v, want ErrPartialWrite", put)
	}
	if c.PartialWrites() != 1 {
		t.Fatalf("PartialWrites = %d, want 1", c.PartialWrites())
	}
}

// newScheduledFleet is newFleetWith on a cluster running the fault
// script, with every shard registered as its node's crash target.
// Machines 0..nShards-1 are the shards, the clients follow.
func newScheduledFleet(t *testing.T, cfg Config, script string, nShards, nClients int, seed int64) (*cluster.Cluster, *Deployment, []*Client) {
	t.Helper()
	sched, err := fault.ParseSchedule(script)
	if err != nil {
		t.Fatal(err)
	}
	spec := cluster.Apt()
	spec.Faults = sched
	cl, d, clients := newFleetOn(t, spec, cfg, nShards, nClients, seed)
	d.RegisterCrashTargets(cl.Faults())
	cl.Faults().Arm()
	return cl, d, clients
}

// TestReadRepairBackfill pins the read path's repair and that a
// partial write is never observed and then un-observed. The key holds
// "orig" on both replicas; a PUT of "fresh" made while the primary is
// cut off applies on the secondary alone, fails as partial and queues
// the key for reconciliation, whose step is slowed so it has not run
// when the reads below are made. The writer reads while the primary is
// on its probation and still cut off, so only the secondary answers
// and nothing is back-filled. A second client reads once the primary
// is reachable again, and must not see "orig" after the writer saw
// "fresh": a queued key is read from every replica, so the primary's
// "orig" loses and is back-filled during the read. Versioned and
// ReadRepair are ignored fields that the benchmark still sets: setting
// either changes nothing.
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
			cfg.MigrationInterval = 10 * sim.Millisecond
			cl, d, clients := newScheduledFleet(t, cfg, "partition a=0 b=1,2,3,4 from=100us until=600us", 3, 2, 31)
			writer, reader := clients[0], clients[1]
			key := keyOnShard(t, d, 0, 1)

			var put, first, second kv.Result
			writer.Put(key, []byte("orig"), func(r kv.Result) { put = r })
			cl.Eng.RunUntil(100 * sim.Microsecond)
			if put.Err != nil {
				t.Fatalf("seed put = %+v", put)
			}
			writer.Put(key, []byte("fresh"), func(r kv.Result) { put = r })
			cl.Eng.At(300*sim.Microsecond, func() {
				if writer.suspect[0] <= cl.Eng.Now() {
					t.Error("the writer's read starts with the primary off probation")
				}
				writer.Get(key, func(r kv.Result) { first = r })
			})
			cl.Eng.At(700*sim.Microsecond, func() {
				if first.Status == 0 {
					t.Error("the writer's read has not returned")
				}
				reader.Get(key, func(r kv.Result) { second = r })
			})
			cl.Eng.RunUntil(3 * sim.Millisecond)

			if !errors.Is(put.Err, ErrPartialWrite) {
				t.Fatalf("put = %+v, want ErrPartialWrite", put)
			}
			for _, r := range []kv.Result{first, second} {
				if r.Err != nil || r.Status != kv.StatusHit || string(r.Value) != "fresh" {
					t.Fatalf("reads = %q then %q (%+v, %+v), want \"fresh\" twice", first.Value, second.Value, first, second)
				}
			}
			if reader.StaleObserved() == 0 || reader.RepairsIssued() == 0 || reader.RepairsApplied() == 0 {
				t.Fatalf("repair counters: stale=%d issued=%d applied=%d",
					reader.StaleObserved(), reader.RepairsIssued(), reader.RepairsApplied())
			}
			if audited, _ := d.AntiEntropyStats(); audited != 0 {
				t.Fatalf("the reconciliation step merged %d keys before the reads", audited)
			}
			fresh, _ := shardHolds(d, 1, key)
			stored, ok := shardHolds(d, 0, key)
			if !ok || !bytes.Equal(stored, fresh) {
				t.Fatalf("primary not back-filled: ok=%v stored=%x, want %x", ok, stored, fresh)
			}
		})
	}
}

// TestPrimaryMissFansOut pins read-one's miss rule. MICA is lossy, so a
// quiet primary may lack a key its secondary holds; the key is
// preloaded onto the secondary alone, as if the primary had evicted it.
// The read asks the primary alone, and its miss asks the secondary,
// whose copy is the answer and is back-filled onto the primary. Until
// the reconciliation step has merged the key, reads of it ask every
// replica, so no later read can be served by a primary still missing
// it.
func TestPrimaryMissFansOut(t *testing.T) {
	cl, d, clients := newFleet(t, 3, 1, 53, withLeases)
	c := clients[0]
	key := keyOnShard(t, d, 0, 1)
	held := stampedValue(int64(sim.Microsecond), 1, "held")
	if err := d.Server(1).Preload(key, held); err != nil {
		t.Fatal(err)
	}
	if !d.soloReadable(key) {
		t.Fatal("a quiet replica set is not read-one")
	}

	var got kv.Result
	queued := false
	c.Get(key, func(r kv.Result) {
		got = r
		queued = !d.soloReadable(key)
	})
	cl.Eng.Run()
	if got.Err != nil || got.Status != kv.StatusHit || string(got.Value) != "held" {
		t.Fatalf("get = %+v (%q), want the secondary's copy", got, got.Value)
	}
	if got.Lease <= 0 {
		t.Fatalf("get dropped the secondary's lease: %+v", got)
	}
	if !queued {
		t.Fatal("the read returned the secondary's copy with the key still read-one")
	}
	if c.StaleObserved() != 1 || c.Reroutes() != 0 {
		t.Fatalf("stale=%d reroutes=%d, want one stale primary and no failover", c.StaleObserved(), c.Reroutes())
	}
	if stored, ok := shardHolds(d, 0, key); !ok || !bytes.Equal(stored, held) {
		t.Fatalf("primary not back-filled: ok=%v stored=%x", ok, stored)
	}
	if !d.soloReadable(key) {
		t.Fatal("the key stayed read-all after the reconciliation step")
	}
}

// TestCrashedReplicaStaleRead pins what a partial write leaves behind
// when the replica that took it then dies. The key's secondary is cut
// off while a PUT of "newer" runs, so only the primary applies it, and
// the primary crashes afterwards. The write fails as partial and queues
// the key for reconciliation, which converges the survivor before the
// crash, so the read after the crash is not served the stale "orig".
func TestCrashedReplicaStaleRead(t *testing.T) {
	t.Run("repair_converges_before_crash", func(t *testing.T) {
		cl, d, clients := newScheduledFleet(t, testConfig(), "partition a=1 b=0,2,3 from=100us until=1ms", 3, 1, 41)
		c := clients[0]
		key := keyOnShard(t, d, 0, 1)
		var put kv.Result
		c.Put(key, []byte("orig"), func(r kv.Result) { put = r })
		cl.Eng.RunUntil(100 * sim.Microsecond)
		if put.Err != nil {
			t.Fatalf("seed put = %+v", put)
		}
		c.Put(key, []byte("newer"), func(r kv.Result) { put = r })
		var first, after kv.Result
		cl.Eng.At(1500*sim.Microsecond, func() {
			c.Get(key, func(r kv.Result) { first = r })
		})
		cl.Eng.At(2*sim.Millisecond, func() {
			d.Server(0).Crash()
			c.Get(key, func(r kv.Result) { after = r })
		})
		cl.Eng.Run()
		if c.PartialWrites() != 1 {
			t.Fatalf("PartialWrites = %d, want 1", c.PartialWrites())
		}
		if first.Err != nil || string(first.Value) != "newer" {
			t.Fatalf("read before the crash = %+v (%q), want the primary's \"newer\"", first, first.Value)
		}
		if after.Err != nil || string(after.Value) != "newer" {
			t.Fatalf("read after crash = %+v (%q), want the reconciled value", after, after.Value)
		}
		if _, repaired := d.AntiEntropyStats(); repaired == 0 {
			t.Fatal("the partial write's reconciliation repaired nothing")
		}
	})
}

// TestAntiEntropySweepConverges pins the background path: a partial
// write enqueues its key, and the sweep merges replicas to the highest
// stamp without any read touching the key.
func TestAntiEntropySweepConverges(t *testing.T) {
	cl, d, clients := newFleet(t, 3, 1, 51)
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
