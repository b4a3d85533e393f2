package core_test

import (
	"slices"
	"testing"

	"herdkv/internal/cluster"
	"herdkv/internal/fleet"
	"herdkv/internal/kv"
	"herdkv/internal/mica"
)

// TestShardedPlacementFollowsClusterSeed checks that static sharding (a
// fleet at Replication 1) takes its key placement from the cluster seed.
// Regression: placement used to come from a hardcoded seed, so two
// clusters built with different seeds got identical key placement.
func TestShardedPlacementFollowsClusterSeed(t *testing.T) {
	shardsOf := func(seed int64) []int {
		cl := cluster.New(cluster.Apt(), 4, seed)
		cfg := fleet.DefaultConfig()
		cfg.Replication = 1
		cfg.Herd.NS = 4
		cfg.Herd.MaxClients = 8
		cfg.Herd.Window = 4
		cfg.Herd.Mica = mica.Config{IndexBuckets: 1 << 10, BucketSlots: 8, LogBytes: 1 << 20}
		machines := []*cluster.Machine{cl.Machine(0), cl.Machine(1), cl.Machine(2), cl.Machine(3)}
		d, err := fleet.NewDeployment(machines, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int, 512)
		for i := range out {
			r := d.Replicas(kv.FromUint64(uint64(i + 1)))
			if len(r) != 1 {
				t.Fatalf("key %d has %d replicas at Replication 1", i+1, len(r))
			}
			out[i] = r[0]
		}
		return out
	}
	a, again, b := shardsOf(1), shardsOf(1), shardsOf(2)
	if !slices.Equal(a, again) {
		t.Fatal("same cluster seed, different placement")
	}
	if slices.Equal(a, b) {
		t.Fatal("clusters with different seeds produced identical placement")
	}
}
