package pilaf

import (
	"bytes"
	"testing"

	"herdkv/internal/cluster"
	"herdkv/internal/kv"
	"herdkv/internal/sim"
)

func newPilaf(t *testing.T, nClients int) (*cluster.Cluster, *Server, []*Client) {
	t.Helper()
	cfg := Config{Buckets: 1 << 12, ExtentBytes: 1 << 22, Cores: 4, Window: 4}
	cl := cluster.New(cluster.Apt(), 1+nClients, 1)
	srv, err := NewServer(cl.Machine(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*Client, nClients)
	for i := range clients {
		clients[i], err = srv.ConnectClient(cl.Machine(1 + i))
		if err != nil {
			t.Fatal(err)
		}
	}
	return cl, srv, clients
}

func TestPutThenGet(t *testing.T) {
	cl, _, clients := newPilaf(t, 1)
	c := clients[0]
	key := kv.FromUint64(1)
	val := []byte("pilaf value")
	var put, get Result
	c.Put(key, val, func(r Result) {
		put = r
		c.Get(key, func(r Result) { get = r })
	})
	cl.Eng.Run()
	if put.Status != kv.StatusHit {
		t.Fatalf("PUT failed: %+v", put)
	}
	if get.Status != kv.StatusHit || !bytes.Equal(get.Value, val) {
		t.Fatalf("GET = ok:%v %q", get.Status == kv.StatusHit, get.Value)
	}
	// Bucket probe(s) plus the extent READ.
	if get.Reads < 2 || get.Reads > 4 {
		t.Fatalf("reads = %d", get.Reads)
	}
}

func TestGetServerPreloaded(t *testing.T) {
	cl, srv, clients := newPilaf(t, 1)
	key := kv.FromUint64(2)
	if err := srv.Insert(key, []byte("preloaded")); err != nil {
		t.Fatal(err)
	}
	var res Result
	clients[0].Get(key, func(r Result) { res = r })
	cl.Eng.Run()
	if res.Status != kv.StatusHit || string(res.Value) != "preloaded" {
		t.Fatalf("GET = %+v", res)
	}
}

func TestGetMiss(t *testing.T) {
	cl, _, clients := newPilaf(t, 1)
	var res Result
	done := false
	clients[0].Get(kv.FromUint64(404), func(r Result) { res, done = r, true })
	cl.Eng.Run()
	if !done || res.Status == kv.StatusHit {
		t.Fatalf("miss: done=%v res=%+v", done, res)
	}
	// A miss still probed the buckets via READs.
	if res.Reads == 0 {
		t.Fatal("miss should have probed")
	}
}

func TestGetLatencyMultipleRTT(t *testing.T) {
	// Pilaf's GET needs bucket READ(s) + value READ: at least 2 RTTs,
	// so idle latency must exceed a HERD-style single round trip.
	cl, srv, clients := newPilaf(t, 1)
	key := kv.FromUint64(3)
	srv.Insert(key, []byte("v"))
	var lat sim.Time
	clients[0].Get(key, func(r Result) { lat = r.Latency })
	cl.Eng.Run()
	if lat < 3*sim.Microsecond {
		t.Fatalf("GET latency %.2f us too low for a 2-READ design", lat.Microseconds())
	}
	if lat > 15*sim.Microsecond {
		t.Fatalf("GET latency %.2f us implausibly high", lat.Microseconds())
	}
}

func TestAverageProbesEmergent(t *testing.T) {
	// Load to ~60% and confirm client probe counts average well below K
	// (the multi-probe cost shows up only as needed).
	cl, srv, clients := newPilaf(t, 1)
	n := (1 << 12) * 60 / 100
	for i := 0; i < n; i++ {
		if err := srv.Insert(kv.FromUint64(uint64(i+1)), []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	totalReads, gets := 0, 0
	var runGet func(i int)
	runGet = func(i int) {
		if i >= 200 {
			return
		}
		clients[0].Get(kv.FromUint64(uint64(i+1)), func(r Result) {
			if r.Status != kv.StatusHit {
				t.Errorf("key %d missing", i+1)
			}
			totalReads += r.Reads
			gets++
			runGet(i + 1)
		})
	}
	runGet(0)
	cl.Eng.Run()
	// Reads = probes + the extent fetch, so average reads sit ~1 above
	// the emergent probe count.
	avg := float64(totalReads) / float64(gets)
	if avg < 2.0 || avg > 3.2 {
		t.Fatalf("avg reads = %.2f, want ~2.2-2.8", avg)
	}
}

func TestManyPutsAcrossClients(t *testing.T) {
	cl, srv, clients := newPilaf(t, 3)
	n := 150
	oks := 0
	for i := 0; i < n; i++ {
		clients[i%3].Put(kv.FromUint64(uint64(i+1)), []byte{byte(i)}, func(r Result) {
			if r.Status == kv.StatusHit {
				oks++
			}
		})
	}
	cl.Eng.Run()
	if oks != n {
		t.Fatalf("oks = %d / %d", oks, n)
	}
	for i := 0; i < n; i++ {
		if _, ok := srv.table.Lookup(kv.FromUint64(uint64(i + 1))); !ok {
			t.Fatalf("key %d missing from the server's table", i+1)
		}
	}
	// Everything readable afterwards.
	got := 0
	for i := 0; i < n; i++ {
		i := i
		clients[(i+1)%3].Get(kv.FromUint64(uint64(i+1)), func(r Result) {
			if r.Status == kv.StatusHit && len(r.Value) == 1 && r.Value[0] == byte(i) {
				got++
			}
		})
	}
	cl.Eng.Run()
	if got != n {
		t.Fatalf("got = %d / %d", got, n)
	}
}

func TestPutValueSizeLimit(t *testing.T) {
	_, _, clients := newPilaf(t, 1)
	if err := clients[0].Put(kv.FromUint64(1), make([]byte, 1001), nil); err == nil {
		t.Fatal("oversized PUT accepted")
	}
}

func TestServerConfigValidation(t *testing.T) {
	cl := cluster.New(cluster.Apt(), 1, 1)
	if _, err := NewServer(cl.Machine(0), Config{Buckets: 16, ExtentBytes: 1 << 12, Cores: 0, Window: 1}); err == nil {
		t.Fatal("Cores=0 accepted")
	}
}
