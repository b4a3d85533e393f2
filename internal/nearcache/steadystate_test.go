package nearcache

import (
	"testing"

	"herdkv/internal/kv"
	"herdkv/internal/kv/kvtest"
	"herdkv/internal/sim"
)

// TestSteadyStateAllocs pins the near cache's per-hit allocation
// budget on a warm closed loop over a HERD origin: the caller's copy of
// each hit's value is cut from the cache's value slab, so hits allocate
// only a slab refill per 4 KiB of values. The lookup, the LRU move and
// the pooled delivery record allocate nothing.
func TestSteadyStateAllocs(t *testing.T) {
	cl, srv, _ := herdOrigin(t, 0)
	cli, err := srv.ConnectClient(cl.Machine(1))
	if err != nil {
		t.Fatal(err)
	}
	c := New(cli, cl.Eng, nil, Config{TTL: sim.Second})
	keys := make([]kv.Key, 64)
	value := []byte("resident value")
	for i := range keys {
		keys[i] = k(uint64(i) + 1)
		if err := srv.Preload(keys[i], value); err != nil {
			t.Fatal(err)
		}
	}
	got := kvtest.SteadyAllocs(t, kvtest.Mix{
		Clients: []kv.KV{c}, Depth: 4, Keys: keys, Run: cl.Eng.Run,
	}, 10000, 10000)
	if got.Hits != got.Gets || got.Failed != 0 || cli.Issued() != uint64(len(keys)) {
		t.Fatalf("%+v after %d origin GETs: want every GET a hit, and one fill per key", got, cli.Issued())
	}
	if budget := kvtest.SlabRefills(got.Hits, len(value), 1) + kvtest.AllocNoise; got.Mallocs > budget {
		t.Fatalf("%d allocations over %d cached hits, budget %d (slab refills only, plus runtime noise)",
			got.Mallocs, got.Hits, budget)
	}
}
