package mux

import (
	"testing"

	"herdkv/internal/cluster"
	"herdkv/internal/core"
	"herdkv/internal/kv"
	"herdkv/internal/kv/kvtest"
)

// TestSteadyStateAllocs pins the endpoint's per-operation allocation
// budget, first submissions on fresh channels included: a warm-up on
// one set of channels grows the endpoint's and the pool's records to
// the load's concurrency, then a closed loop runs on as many channels
// that have never queued an op. A channel's backlog links the pooled
// ops themselves, so a first submission needs no queue storage, and the
// only allocations left are the pool's GET-value slab refills.
func TestSteadyStateAllocs(t *testing.T) {
	const chans = 1024
	cl := cluster.New(cluster.Apt(), 2, 1)
	srv, err := core.NewServer(cl.Machine(0), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	ep, err := Connect(srv, cl.Machine(1), Config{QPs: 2})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]kv.Key, 64)
	value := []byte("endpoint value")
	for i := range keys {
		keys[i] = kv.FromUint64(uint64(i) + 1)
		if err := srv.Preload(keys[i], value); err != nil {
			t.Fatal(err)
		}
	}
	open := func() []kv.KV {
		out := make([]kv.KV, chans)
		for i := range out {
			ch, err := ep.OpenChannel()
			if err != nil {
				t.Fatal(err)
			}
			out[i] = ch
		}
		return out
	}
	mix := kvtest.Mix{Clients: open(), Depth: 1, Keys: keys, Value: value, PutEvery: 2, Run: cl.Eng.Run}
	kvtest.SteadyAllocs(t, mix, 0, 4*chans)
	mix.Clients = open()
	got := kvtest.SteadyAllocs(t, mix, 0, 2*chans)
	if got.Hits != got.Gets || got.Failed != 0 {
		t.Fatalf("%+v: want every GET a hit and no failures", got)
	}
	if budget := kvtest.SlabRefills(got.Hits, len(value), ep.PoolSize()) + kvtest.AllocNoise; got.Mallocs > budget {
		t.Fatalf("%d allocations over %d ops, %d of them first pushes on fresh channels, budget %d (slab refills only, plus runtime noise)",
			got.Mallocs, got.Gets+got.Puts, chans, budget)
	}
}
