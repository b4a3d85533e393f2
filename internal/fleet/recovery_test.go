package fleet

import (
	"bytes"
	"slices"
	"testing"

	"herdkv/internal/cluster"
	"herdkv/internal/core"
	"herdkv/internal/kv"
	"herdkv/internal/mica"
	"herdkv/internal/sim"
)

func durableFleetConfig() Config {
	cfg := testConfig()
	cfg.Herd.Durability = core.DurabilityGroupCommit
	return cfg
}

// newFleetWith is newFleet with an explicit config.
func newFleetWith(t *testing.T, cfg Config, nShards, nClients int, seed int64) (*cluster.Cluster, *Deployment, []*Client) {
	t.Helper()
	cl := cluster.New(cluster.Apt(), nShards+nClients, seed)
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

// shardHolds reads key straight from shard id's partitions.
func shardHolds(d *Deployment, id int, key kv.Key) ([]byte, bool) {
	return d.Server(id).Partition(mica.Partition(key, d.cfg.Herd.NS)).Get(key)
}

// TestWarmRejoinDeltaCatchup: a durable shard crashes, the survivor
// takes writes during the outage, and the rejoin replays its own log
// then pulls only the delta — not the full replica set — from the
// survivor.
func TestWarmRejoinDeltaCatchup(t *testing.T) {
	cl, d, _ := newFleetWith(t, durableFleetConfig(), 2, 0, 3)
	const old, late, delta = 32, 8, 4
	val := func(tag byte, i uint64) []byte { return []byte{tag, byte(i)} }
	// Old keys at t=0; a later durable batch moves shard 0's
	// last-durable instant forward so the catch-up window (last durable
	// minus the group-commit guard) excludes the old keys.
	for i := uint64(0); i < old; i++ {
		if err := d.Preload(kv.FromUint64(i), val('o', i)); err != nil {
			t.Fatal(err)
		}
	}
	cl.Eng.At(50*sim.Microsecond, func() {
		for i := uint64(old); i < old+late; i++ {
			if err := d.Preload(kv.FromUint64(i), val('l', i)); err != nil {
				t.Fatal(err)
			}
		}
	})
	cl.Eng.At(100*sim.Microsecond, func() { d.Server(0).Crash() })
	// Outage writes land on the survivor only.
	cl.Eng.At(110*sim.Microsecond, func() {
		for i := uint64(0); i < delta; i++ {
			if err := d.Server(1).Preload(kv.FromUint64(i), val('d', i)); err != nil {
				t.Fatal(err)
			}
		}
	})
	cl.Eng.At(120*sim.Microsecond, func() { d.Server(0).Restart() })
	cl.Eng.Run()

	rec := d.LastRecovery()
	if rec.ShardID != 0 || !rec.Warm {
		t.Fatalf("recovery = %+v, want a warm one for shard 0", rec)
	}
	if rec.Replayed == 0 || rec.Duration <= 0 {
		t.Fatalf("recovery = %+v, want replayed records and a real duration", rec)
	}
	if rec.CatchupKeys < delta || rec.CatchupKeys >= old+late+delta {
		t.Fatalf("catch-up copied %d keys, want a delta in [%d, %d)", rec.CatchupKeys, delta, old+late+delta)
	}
	// The rejoined shard holds every key: old ones from its own log,
	// outage writes from the survivor's delta.
	for i := uint64(0); i < old+late; i++ {
		want := val('o', i)
		if i >= old {
			want = val('l', i)
		}
		if i < delta {
			want = val('d', i)
		}
		if v, ok := shardHolds(d, 0, kv.FromUint64(i)); !ok || !bytes.Equal(v, want) {
			t.Fatalf("key %d on rejoined shard: value=%v ok=%v, want %v", i, v, ok, want)
		}
	}
}

// TestColdRejoinFullRecopy: without durability a restarted shard is
// empty and the fleet re-replicates its whole replica set.
func TestColdRejoinFullRecopy(t *testing.T) {
	cl, d, _ := newFleetWith(t, testConfig(), 2, 0, 3)
	const keys = 64
	for i := uint64(0); i < keys; i++ {
		if err := d.Preload(kv.FromUint64(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	cl.Eng.At(10*sim.Microsecond, func() { d.Server(0).Crash() })
	cl.Eng.At(20*sim.Microsecond, func() { d.Server(0).Restart() })
	cl.Eng.Run()

	rec := d.LastRecovery()
	if rec.Warm || rec.ShardID != 0 {
		t.Fatalf("recovery = %+v, want a cold one for shard 0", rec)
	}
	if rec.CatchupKeys != keys {
		t.Fatalf("cold catch-up copied %d keys, want all %d", rec.CatchupKeys, keys)
	}
	for i := uint64(0); i < keys; i++ {
		if v, ok := shardHolds(d, 0, kv.FromUint64(i)); !ok || !bytes.Equal(v, []byte{byte(i)}) {
			t.Fatalf("key %d on recopied shard: value=%v ok=%v", i, v, ok)
		}
	}
}

// TestRecoveryAbortsAndRestartsOnSecondCrash: a shard that dies again
// mid-catch-up aborts cleanly; its next restart recovers from scratch.
func TestRecoveryAbortsAndRestartsOnSecondCrash(t *testing.T) {
	cfg := durableFleetConfig()
	cfg.MigrationInterval = 20 * sim.Microsecond // slow steps: crash lands mid-catch-up
	cl, d, _ := newFleetWith(t, cfg, 2, 0, 3)
	const keys = 256
	for i := uint64(0); i < keys; i++ {
		if err := d.Preload(kv.FromUint64(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	cl.Eng.At(20*sim.Microsecond, func() { d.Server(0).Crash() })
	cl.Eng.At(30*sim.Microsecond, func() { d.Server(0).Restart() })
	cl.Eng.At(70*sim.Microsecond, func() { d.Server(0).Crash() })
	cl.Eng.At(200*sim.Microsecond, func() { d.Server(0).Restart() })
	cl.Eng.Run()

	if d.RecoveryActive() {
		t.Fatal("a recovery is still pending after drain")
	}
	rec := d.LastRecovery()
	if rec.ShardID != 0 || !rec.Warm {
		t.Fatalf("final recovery = %+v, want warm shard 0", rec)
	}
	for i := uint64(0); i < keys; i++ {
		if v, ok := shardHolds(d, 0, kv.FromUint64(i)); !ok || !bytes.Equal(v, []byte{byte(i)}) {
			t.Fatalf("key %d after double crash: value=%v ok=%v", i, v, ok)
		}
	}
}

// TestSharedQueueOverlappingCatchups: two shards' catch-ups and a
// repair share one reconciliation queue. A second restart lands while
// the first catch-up is still draining, a rejoining shard takes a
// higher-stamped write for one of its queued keys, and re-enqueueing
// that key is absorbed by the queue. The higher stamp wins the merge
// over the survivor's copy, and both catch-ups complete in start order.
func TestSharedQueueOverlappingCatchups(t *testing.T) {
	cfg := durableFleetConfig()
	cfg.Versioned = true
	cfg.MigrationInterval = 20 * sim.Microsecond // slow steps: the catch-ups overlap
	cl, d, _ := newFleetWith(t, cfg, 3, 0, 5)
	const keys = 256
	for i := uint64(1); i <= keys; i++ {
		if err := d.Preload(kv.FromUint64(i), stampedValue(1, i, "old")); err != nil {
			t.Fatal(err)
		}
	}
	cl.Eng.At(10*sim.Microsecond, func() { d.Server(0).Crash() })
	cl.Eng.At(20*sim.Microsecond, func() { d.Server(0).Restart() })
	cl.Eng.At(30*sim.Microsecond, func() { d.Server(1).Crash() })
	cl.Eng.At(40*sim.Microsecond, func() { d.Server(1).Restart() })
	var key kv.Key
	fresh := stampedValue(2, 1, "fresh")
	// watch polls until the step has merged the key's queue position.
	// The survivor must hold the higher stamp from that merge itself,
	// before the full sweep that follows a versioned catch-up could have
	// copied it.
	pos, merged := 0, false
	var watch func()
	watch = func() {
		if d.aeMerged <= pos {
			cl.Eng.After(sim.Microsecond, watch)
			return
		}
		if v, _ := shardHolds(d, 2, key); !bytes.Equal(v, fresh) {
			t.Fatalf("after its merge the survivor holds %x, want the rejoining shard's higher stamp %x", v, fresh)
		}
		merged = true
	}
	cl.Eng.At(60*sim.Microsecond, func() {
		if !d.catchingUp(0) || !d.catchingUp(1) {
			t.Fatalf("at 60us shard 0 catching up %v, shard 1 %v; want both", d.catchingUp(0), d.catchingUp(1))
		}
		// The last queued key that rejoining shard 0 shares with shard
		// 2, which never crashes.
		for i, k := range d.aeQueue {
			if reps := d.Replicas(k); slices.Contains(reps, 0) && slices.Contains(reps, 2) {
				key, pos = k, d.aeMerged+i
			}
		}
		if key.IsZero() {
			t.Fatal("no queued key is replicated on shards 0 and 2")
		}
		if err := d.Server(0).Preload(key, fresh); err != nil {
			t.Fatal(err)
		}
		pending := len(d.aeQueue)
		d.EnqueueRepair(key)
		if got := len(d.aeQueue); got != pending {
			t.Fatalf("re-enqueueing a queued key moved the queue from %d to %d keys", pending, got)
		}
		cl.Eng.After(sim.Microsecond, watch)
	})
	cl.Eng.Run()
	if !merged {
		t.Fatal("the queued key was never merged")
	}

	if d.RecoveryActive() {
		t.Fatal("a catch-up is still pending after drain")
	}
	if rec := d.LastRecovery(); rec.ShardID != 1 || !rec.Warm || rec.CatchupKeys == 0 {
		t.Fatalf("last recovery = %+v, want shard 1's warm catch-up", rec)
	}
	for _, id := range []int{0, 2} {
		if v, ok := shardHolds(d, id, key); !ok || !bytes.Equal(v, fresh) {
			t.Fatalf("shard %d holds %x (ok=%v), want the higher stamp %x", id, v, ok, fresh)
		}
	}
}
