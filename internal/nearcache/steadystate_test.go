package nearcache

import (
	"testing"

	"herdkv/internal/kv"
	"herdkv/internal/kv/kvtest"
	"herdkv/internal/sim"
)

// TestSteadyStateAllocs pins the near cache's per-hit allocation
// budget on a warm closed loop over a HERD origin: a hit allocates only
// the caller's copy of the value. The lookup, the LRU move and the
// pooled delivery record allocate nothing.
func TestSteadyStateAllocs(t *testing.T) {
	cl, srv, _ := herdOrigin(t, 0)
	cli, err := srv.ConnectClient(cl.Machine(1))
	if err != nil {
		t.Fatal(err)
	}
	c := New(cli, cl.Eng, nil, Config{TTL: sim.Second})
	keys := make([]kv.Key, 64)
	for i := range keys {
		keys[i] = k(uint64(i) + 1)
		if err := srv.Preload(keys[i], []byte("resident value")); err != nil {
			t.Fatal(err)
		}
	}
	got := kvtest.SteadyAllocs(t, kvtest.Mix{
		Clients: []kv.KV{c}, Depth: 4, Keys: keys, Run: cl.Eng.Run,
	}, 10000, 10000)
	if got.Hits != got.Gets || got.Failed != 0 || cli.Issued() != uint64(len(keys)) {
		t.Fatalf("%+v after %d origin GETs: want every GET a hit, and one fill per key", got, cli.Issued())
	}
	if budget := uint64(got.Hits) + kvtest.AllocNoise; got.Mallocs > budget {
		t.Fatalf("%d allocations over %d cached hits, budget %d (1 per hit, plus runtime noise)",
			got.Mallocs, got.Hits, budget)
	}
}
