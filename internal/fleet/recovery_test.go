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
	return newFleetOn(t, cluster.Apt(), cfg, nShards, nClients, seed)
}

// newFleetOn is newFleetWith on a cluster built from spec.
func newFleetOn(t *testing.T, spec cluster.Spec, cfg Config, nShards, nClients int, seed int64) (*cluster.Cluster, *Deployment, []*Client) {
	t.Helper()
	cl := cluster.New(spec, nShards+nClients, seed)
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

// TestCatchingUpPrimaryNotReadAlone pins what read-one relies on in
// place of a per-client floor of completed writes: a primary that lost
// a completed write is never read alone. The write completes on both
// replicas while its WAL record still sits in the primary's unflushed
// group-commit window; the primary then crashes, so its warm restart
// replays the older version. A read issued the moment the primary
// rejoins, with its catch-up still queued, must return the completed
// write. The reader is a client that connects after the rejoin, so its
// first request reaches the primary without a reconnect handshake. The
// group-commit window and the reconciliation step are widened so the
// crash lands inside the one and the read ahead of the other.
func TestCatchingUpPrimaryNotReadAlone(t *testing.T) {
	cfg := durableFleetConfig()
	cfg.Herd.WAL.FlushInterval = 50 * sim.Microsecond
	cfg.MigrationInterval = 100 * sim.Microsecond
	cl, d, clients := newFleetWith(t, cfg, 3, 1, 71)
	c := clients[0]
	key := keyOnShard(t, d, 0, 1)
	payload := func(id int) string {
		stored, _ := shardHolds(d, id, key)
		_, _, p, _ := kv.SplitVersion(stored)
		return string(p)
	}

	var put kv.Result
	c.Put(key, []byte("old"), func(r kv.Result) { put = r })
	cl.Eng.Run()
	if put.Err != nil {
		t.Fatalf("first put = %+v", put)
	}
	c.Put(key, []byte("new"), func(r kv.Result) {
		put = r
		d.Server(0).Crash()
	})
	cl.Eng.Run()
	if put.Err != nil {
		t.Fatalf("second put = %+v, want it completed before the crash", put)
	}
	d.Server(0).Restart()
	for d.Server(0).Down() {
		if !cl.Eng.Step() {
			t.Fatal("the primary never rejoined")
		}
	}
	if got := payload(0); got != "old" {
		t.Fatalf("the rejoined primary holds %q, want the replayed \"old\" (the write must have sat in the unflushed window)", got)
	}
	if !d.RecoveryActive() {
		t.Fatal("the primary rejoined with no catch-up in progress")
	}

	reader, err := d.ConnectClient(cl.AddMachine())
	if err != nil {
		t.Fatal(err)
	}
	var got kv.Result
	reader.Get(key, func(r kv.Result) { got = r })
	cl.Eng.Run()
	if got.Err != nil || got.Status != kv.StatusHit || string(got.Value) != "new" {
		t.Fatalf("read during catch-up = %+v (%q), want the completed write", got, got.Value)
	}
	if reader.Reroutes() != 0 {
		t.Fatalf("the read failed over %d times; it must reach the rejoined primary", reader.Reroutes())
	}
	if p0, p1 := payload(0), payload(1); p0 != "new" || p1 != "new" {
		t.Fatalf("replicas hold %q and %q after the catch-up, want \"new\" on both", p0, p1)
	}
}

// TestLostWriteWaitsForDownReplica pins read-one across two failures.
// A write completes on both replicas while its WAL record still sits in
// the primary's unflushed group-commit window; the primary crashes, and
// once the secondary has flushed the write it crashes too. The primary
// rejoins with the older value while the write's only other holder is
// down, so its catch-up has nothing to copy and settles. When the
// secondary rejoins and replays the write, a read made during its
// catch-up must return the completed write: the primary may not be
// read alone while any shard is catching up. Once the catch-up's sweep
// has run, both replicas hold the write.
func TestLostWriteWaitsForDownReplica(t *testing.T) {
	cfg := durableFleetConfig()
	cfg.Herd.WAL.FlushInterval = 50 * sim.Microsecond
	cfg.MigrationInterval = 100 * sim.Microsecond
	cl, d, clients := newFleetWith(t, cfg, 3, 1, 73)
	c := clients[0]
	key := keyOnShard(t, d, 0, 1)
	payload := func(id int) string {
		stored, _ := shardHolds(d, id, key)
		_, _, p, _ := kv.SplitVersion(stored)
		return string(p)
	}
	rejoin := func(id int) {
		t.Helper()
		d.Server(id).Restart()
		for d.Server(id).Down() {
			if !cl.Eng.Step() {
				t.Fatalf("shard %d never rejoined", id)
			}
		}
	}
	// read reads key through a newly connected client (so its first
	// request needs no reconnect handshake), and reports whether a
	// catch-up was still in progress when the read returned.
	read := func() (got kv.Result, during bool) {
		t.Helper()
		reader, err := d.ConnectClient(cl.AddMachine())
		if err != nil {
			t.Fatal(err)
		}
		reader.Get(key, func(r kv.Result) { got, during = r, d.RecoveryActive() })
		cl.Eng.Run()
		return got, during
	}

	var put kv.Result
	c.Put(key, []byte("old"), func(r kv.Result) { put = r })
	cl.Eng.Run()
	if put.Err != nil {
		t.Fatalf("first put = %+v", put)
	}
	// The second write lands well past the first's group-commit guard,
	// so the secondary's catch-up does not re-read the key.
	cl.Eng.At(cl.Eng.Now()+sim.Millisecond, func() {
		c.Put(key, []byte("new"), func(r kv.Result) {
			put = r
			d.Server(0).Crash()
		})
	})
	cl.Eng.Run()
	if put.Err != nil {
		t.Fatalf("second put = %+v, want it completed before the crash", put)
	}
	d.Server(1).Crash()

	rejoin(0)
	if got := payload(0); got != "old" {
		t.Fatalf("the rejoined primary holds %q, want the replayed \"old\"", got)
	}
	cl.Eng.Run()
	if d.RecoveryActive() {
		t.Fatal("the primary's catch-up did not settle with the secondary down")
	}

	rejoin(1)
	if got := payload(1); got != "new" {
		t.Fatalf("the rejoined secondary holds %q, want the replayed \"new\"", got)
	}
	if !d.RecoveryActive() {
		t.Fatal("the secondary rejoined with no catch-up in progress")
	}
	got, during := read()
	if !during {
		t.Fatal("the read finished after the secondary's catch-up; it must run during it")
	}
	if got.Err != nil || got.Status != kv.StatusHit || string(got.Value) != "new" {
		t.Fatalf("read during the secondary's catch-up = %+v (%q), want the completed write", got, got.Value)
	}
	if got, _ := read(); got.Err != nil || string(got.Value) != "new" {
		t.Fatalf("read after the catch-up = %+v (%q), want the completed write", got, got.Value)
	}
	if p0, p1 := payload(0), payload(1); p0 != "new" || p1 != "new" {
		t.Fatalf("replicas hold %q and %q after the catch-up, want \"new\" on both", p0, p1)
	}
}

// TestReconnectOnRestart pins reconnect on restart. A write made while
// its secondary is down leaves that replica out of its view and
// succeeds, but its request to the secondary burns the member client's
// retry budget and starts a reconnect handshake, whose attempts back
// off while the shard stays down. The shard restarts between two
// attempts. Once its catch-up has settled, the client writes the key
// again: the restart's fresh handshake must have reconnected it, so the
// write reaches both replicas instead of meeting the dead connection
// and failing as partial.
func TestReconnectOnRestart(t *testing.T) {
	cl, d, clients := newFleet(t, 2, 1, 83)
	c := clients[0]
	key := keyOnShard(t, d, 0, 1)
	sub := c.subs[1].(*core.Client)

	d.Server(1).Crash()
	var put kv.Result
	c.Put(key, []byte("during"), func(r kv.Result) { put = r })
	cl.Eng.RunUntil(sim.Millisecond)
	if put.Err != nil || c.Suspected() == 0 {
		t.Fatalf("write during the outage = %+v with %d suspicions; want it served and the down shard's request timed out", put, c.Suspected())
	}
	if sub.Reconnects() != 0 {
		t.Fatal("the client reconnected to a down shard")
	}

	d.Server(1).Restart()
	for d.Server(1).Down() || d.RecoveryActive() {
		if !cl.Eng.Step() {
			t.Fatal("the shard never rejoined")
		}
	}
	c.Put(key, []byte("after"), func(r kv.Result) { put = r })
	cl.Eng.Run()
	if put.Err != nil || c.PartialWrites() != 1 {
		t.Fatalf("write after the restart = %+v, partial writes %d; want it to reach both replicas", put, c.PartialWrites())
	}
	if sub.Reconnects() == 0 {
		t.Fatal("the client never reconnected to the restarted shard")
	}
}
