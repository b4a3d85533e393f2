package fleet

import (
	"testing"

	"herdkv/internal/cluster"
	"herdkv/internal/core"
	"herdkv/internal/kv"
	"herdkv/internal/kv/kvtest"
)

// TestSteadyStateAllocs pins the versioned fleet's per-operation
// allocation budget on a warm closed loop over a group-commit WAL: a
// steady GET reads its primary alone, and the one value core copies
// out is cut from the sub-client's value slab and handed to the caller
// as it is, so GETs allocate only slab refills, and a PUT allocates
// nothing — the op record, its per-replica callbacks and stamp buffer,
// the precomputed replica sets, and the WAL's pending buffer and flight
// records are all reused. Snapshot compaction, a periodic background
// cost, is off.
func TestSteadyStateAllocs(t *testing.T) {
	const shards, clients, r = 3, 4, 2
	cl := cluster.New(cluster.Apt(), shards+clients, 1)
	cfg := testConfig()
	cfg.Replication = r
	cfg.Herd.Durability = core.DurabilityGroupCommit
	cfg.Herd.WAL.SnapshotEvery = -1
	machines := make([]*cluster.Machine, shards)
	for i := range machines {
		machines[i] = cl.Machine(i)
	}
	d, err := NewDeployment(machines, cfg)
	if err != nil {
		t.Fatal(err)
	}
	kvs := make([]kv.KV, clients)
	for i := range kvs {
		if kvs[i], err = d.ConnectClient(cl.Machine(shards + i)); err != nil {
			t.Fatal(err)
		}
	}
	keys := make([]kv.Key, 64)
	value := []byte("steady-state value")
	stored := stampedValue(0, 0, string(value))
	for i := range keys {
		keys[i] = kv.FromUint64(uint64(i) + 1)
		if err := d.Preload(keys[i], stored); err != nil {
			t.Fatal(err)
		}
	}
	got := kvtest.SteadyAllocs(t, kvtest.Mix{
		Clients: kvs, Depth: 2, Keys: keys, Value: value, PutEvery: 2, Run: cl.Eng.Run,
	}, 10000, 10000)
	if got.Hits != got.Gets || got.Failed != 0 {
		t.Fatalf("%+v: want every GET a hit and no failures", got)
	}
	if budget := kvtest.SlabRefills(got.Gets, len(stored), clients*shards) + kvtest.AllocNoise; got.Mallocs > budget {
		t.Fatalf("%d allocations over %d GETs and %d PUTs, budget %d (slab refills only, plus runtime noise)",
			got.Mallocs, got.Gets, got.Puts, budget)
	}
}
