package farm

import (
	"bytes"
	"testing"

	"herdkv/internal/cluster"
	"herdkv/internal/kv"
	"herdkv/internal/sim"
)

func newFarm(t *testing.T, mode Mode, nClients int) (*cluster.Cluster, *Server, []*Client) {
	t.Helper()
	cfg := Config{
		Mode: mode, Buckets: 1 << 12, ValueSize: 32,
		ExtentBytes: 1 << 22, Cores: 4, Window: 4,
	}
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

func val32(b byte) []byte { return bytes.Repeat([]byte{b}, 32) }

func TestInlinePutThenGet(t *testing.T) {
	cl, _, clients := newFarm(t, InlineMode, 1)
	key := kv.FromUint64(1)
	var put, get Result
	clients[0].Put(key, val32(7), func(r Result) {
		put = r
		clients[0].Get(key, func(r Result) { get = r })
	})
	cl.Eng.Run()
	if put.Status != kv.StatusHit {
		t.Fatalf("PUT = %+v", put)
	}
	if get.Status != kv.StatusHit || !bytes.Equal(get.Value, val32(7)) {
		t.Fatalf("GET = status:%v", get.Status)
	}
	if get.Reads != 1 {
		t.Fatalf("inline GET used %d READs, want 1", get.Reads)
	}
}

func TestVarPutThenGet(t *testing.T) {
	cl, _, clients := newFarm(t, VarMode, 1)
	key := kv.FromUint64(2)
	want := []byte("out of table value bytes")
	var get Result
	clients[0].Put(key, want, func(Result) {
		clients[0].Get(key, func(r Result) { get = r })
	})
	cl.Eng.Run()
	if get.Status != kv.StatusHit || !bytes.Equal(get.Value, want) {
		t.Fatalf("GET = status:%v val:%q", get.Status, get.Value)
	}
	if get.Reads != 2 {
		t.Fatalf("var GET used %d READs, want 2", get.Reads)
	}
}

func TestGetMiss(t *testing.T) {
	for _, mode := range []Mode{InlineMode, VarMode} {
		cl, _, clients := newFarm(t, mode, 1)
		var res Result
		done := false
		clients[0].Get(kv.FromUint64(404), func(r Result) { res, done = r, true })
		cl.Eng.Run()
		if !done || res.Status == kv.StatusHit {
			t.Fatalf("mode %d miss: done=%v status=%v", mode, done, res.Status)
		}
	}
}

func TestInlineGetSingleRTTFasterThanVar(t *testing.T) {
	// The inline mode's whole point: one RTT beats two.
	latency := func(mode Mode) sim.Time {
		cl, srv, clients := newFarm(t, mode, 1)
		key := kv.FromUint64(5)
		v := val32(1)
		if mode == VarMode {
			v = []byte("any")
		}
		srv.Insert(key, v)
		var lat sim.Time
		clients[0].Get(key, func(r Result) { lat = r.Latency })
		cl.Eng.Run()
		if lat == 0 {
			t.Fatal("GET did not complete")
		}
		return lat
	}
	inl, varm := latency(InlineMode), latency(VarMode)
	if inl >= varm {
		t.Fatalf("inline %.2f us >= var %.2f us", inl.Microseconds(), varm.Microseconds())
	}
}

func TestManyClientsManyKeys(t *testing.T) {
	cl, srv, clients := newFarm(t, InlineMode, 3)
	n := 120
	oks := 0
	for i := 0; i < n; i++ {
		clients[i%3].Put(kv.FromUint64(uint64(i+1)), val32(byte(i)), func(r Result) {
			if r.Status == kv.StatusHit {
				oks++
			}
		})
	}
	cl.Eng.Run()
	if oks != n {
		t.Fatalf("put oks = %d/%d", oks, n)
	}
	for i := 0; i < n; i++ {
		if _, ok := srv.table.Lookup(kv.FromUint64(uint64(i + 1))); !ok {
			t.Fatalf("key %d missing from the server's table", i+1)
		}
	}
	got := 0
	for i := 0; i < n; i++ {
		i := i
		clients[(i+2)%3].Get(kv.FromUint64(uint64(i+1)), func(r Result) {
			if r.Status == kv.StatusHit && r.Value[0] == byte(i) {
				got++
			}
		})
	}
	cl.Eng.Run()
	if got != n {
		t.Fatalf("gets = %d/%d", got, n)
	}
}

func TestInlineValueSizeStrict(t *testing.T) {
	_, _, clients := newFarm(t, InlineMode, 1)
	if err := clients[0].Put(kv.FromUint64(1), []byte("short"), nil); err == nil {
		t.Fatal("wrong-size inline PUT accepted")
	}
}

func TestServerValidation(t *testing.T) {
	cl := cluster.New(cluster.Apt(), 1, 1)
	if _, err := NewServer(cl.Machine(0), Config{Mode: InlineMode, Buckets: 16, ValueSize: 8, Cores: 0, Window: 1}); err == nil {
		t.Fatal("Cores=0 accepted")
	}
	if _, err := NewServer(cl.Machine(0), Config{Mode: Mode(9), Buckets: 16, Cores: 1, Window: 1}); err == nil {
		t.Fatal("bad mode accepted")
	}
}

func TestWindowThrottlesPuts(t *testing.T) {
	cl, _, clients := newFarm(t, InlineMode, 1)
	c := clients[0]
	acked := 0
	for i := 0; i < 20; i++ {
		c.Put(kv.FromUint64(uint64(i+1)), val32(1), func(Result) { acked++ })
	}
	if c.Inflight() != 4 {
		t.Fatalf("inflight = %d, want window 4", c.Inflight())
	}
	cl.Eng.Run()
	if c.Inflight() != 0 || acked != 20 {
		t.Fatalf("drain incomplete: inflight=%d, %d/20 acked", c.Inflight(), acked)
	}
}

func TestReadSizesMatchPaperFormulas(t *testing.T) {
	// FaRM-em GET READ = 6*(16+SV); FaRM-em-VAR first READ = 6*(16+8).
	_, srvI, _ := newFarm(t, InlineMode, 0)
	if got := srvI.table.NeighborhoodBytes(); got != 6*(16+32) {
		t.Fatalf("inline neighborhood = %d", got)
	}
	_, srvV, _ := newFarm(t, VarMode, 0)
	if got := srvV.table.NeighborhoodBytes(); got != 6*24 {
		t.Fatalf("var neighborhood = %d", got)
	}
}
