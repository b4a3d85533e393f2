package core

import (
	"testing"

	"herdkv/internal/kv"
	"herdkv/internal/kv/kvtest"
	"herdkv/internal/sim"
)

// TestSteadyStateAllocs pins HERD's per-operation allocation budget on
// a warm closed loop: a GET hit's Result.Value (the caller's copy, by
// kv.KV's ownership contract) is cut from the client's value slab, so
// GETs allocate only a slab refill per 4 KiB of values, and a PUT
// allocates nothing — the client's op and timer records, the server's
// serve records and every verb record are pooled.
func TestSteadyStateAllocs(t *testing.T) {
	cfg := smallConfig()
	cfg.RetryTimeout = 12 * sim.Microsecond // every op arms (and outlives) a retry timer
	cl, srv, clients := newHERD(t, cfg, 4)
	keys := make([]kv.Key, 64)
	value := []byte("steady-state value, 32 bytes ..")
	for i := range keys {
		keys[i] = kv.FromUint64(uint64(i) + 1)
		if err := srv.Preload(keys[i], value); err != nil {
			t.Fatal(err)
		}
	}
	kvs := make([]kv.KV, len(clients))
	for i, c := range clients {
		kvs[i] = c
	}
	got := kvtest.SteadyAllocs(t, kvtest.Mix{
		Clients: kvs, Depth: cfg.Window, Keys: keys, Value: value, PutEvery: 2, Run: cl.Eng.Run,
	}, 10000, 10000)
	if got.Hits != got.Gets || got.Failed != 0 {
		t.Fatalf("%+v: want every GET a hit and no failures", got)
	}
	if budget := kvtest.SlabRefills(got.Hits, len(value), len(clients)) + kvtest.AllocNoise; got.Mallocs > budget {
		t.Fatalf("%d allocations over %d GET hits and %d PUTs, budget %d (slab refills only, plus runtime noise)",
			got.Mallocs, got.Hits, got.Puts, budget)
	}
}
