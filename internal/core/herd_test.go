package core

import (
	"bytes"
	"testing"

	"herdkv/internal/cluster"
	"herdkv/internal/kv"
	"herdkv/internal/mica"
	"herdkv/internal/sim"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.NS = 4
	cfg.MaxClients = 8
	cfg.Window = 4
	cfg.Mica = mica.Config{IndexBuckets: 1 << 10, BucketSlots: 8, LogBytes: 1 << 20}
	return cfg
}

func newHERD(t *testing.T, cfg Config, nClients int) (*cluster.Cluster, *Server, []*Client) {
	t.Helper()
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

func TestPutGetRoundTrip(t *testing.T) {
	cl, _, clients := newHERD(t, smallConfig(), 1)
	c := clients[0]
	key := kv.FromUint64(1)
	val := []byte("herd end to end value")

	var putRes, getRes Result
	c.Put(key, val, func(r Result) {
		putRes = r
		c.Get(key, func(r Result) { getRes = r })
	})
	cl.Eng.Run()

	if putRes.Status != kv.StatusHit {
		t.Fatalf("PUT failed: %+v", putRes)
	}
	if getRes.Status != kv.StatusHit || !bytes.Equal(getRes.Value, val) {
		t.Fatalf("GET = %+v", getRes)
	}
	if getRes.Latency <= 0 || getRes.Latency > 20*sim.Microsecond {
		t.Fatalf("GET latency %v outside sane range", getRes.Latency)
	}
}

func TestGetMissingKey(t *testing.T) {
	cl, _, clients := newHERD(t, smallConfig(), 1)
	var res Result
	done := false
	clients[0].Get(kv.FromUint64(42), func(r Result) { res, done = r, true })
	cl.Eng.Run()
	if !done {
		t.Fatal("no response")
	}
	if res.Status == kv.StatusHit || res.Value != nil {
		t.Fatalf("miss returned %+v", res)
	}
}

func TestManyKeysAcrossPartitions(t *testing.T) {
	cfg := smallConfig()
	cl, srv, clients := newHERD(t, cfg, 2)
	n := 200
	okPuts := 0
	for i := 0; i < n; i++ {
		key := kv.FromUint64(uint64(i + 1))
		c := clients[i%2]
		c.Put(key, []byte{byte(i), byte(i >> 8)}, func(r Result) {
			if r.Status == kv.StatusHit {
				okPuts++
			}
		})
	}
	cl.Eng.Run()
	if okPuts != n {
		t.Fatalf("okPuts = %d, want %d", okPuts, n)
	}

	// Every partition should have received work (EREW steering).
	busy := 0
	for p := 0; p < cfg.NS; p++ {
		if srv.Partition(p).Stats().Puts > 0 {
			busy++
		}
	}
	if busy != cfg.NS {
		t.Fatalf("only %d/%d partitions used", busy, cfg.NS)
	}

	// Now read everything back from the other client.
	okGets := 0
	for i := 0; i < n; i++ {
		i := i
		clients[(i+1)%2].Get(kv.FromUint64(uint64(i+1)), func(r Result) {
			if r.Status == kv.StatusHit && len(r.Value) == 2 && r.Value[0] == byte(i) && r.Value[1] == byte(i>>8) {
				okGets++
			}
		})
	}
	cl.Eng.Run()
	if okGets != n {
		t.Fatalf("okGets = %d, want %d", okGets, n)
	}
}

func TestWindowLimitsInflight(t *testing.T) {
	cfg := smallConfig()
	cfg.Window = 2
	cl, _, clients := newHERD(t, cfg, 1)
	c := clients[0]
	completed := 0
	for i := 0; i < 10; i++ {
		c.Get(kv.FromUint64(uint64(i+1)), func(r kv.Result) {
			if r.Err == nil {
				completed++
			}
		})
	}
	if c.Inflight() != 2 {
		t.Fatalf("inflight = %d, want window 2", c.Inflight())
	}
	if c.waiting.Len() != 8 {
		t.Fatalf("waiting = %d, want 8", c.waiting.Len())
	}
	cl.Eng.Run()
	if completed != 10 {
		t.Fatalf("completed = %d, want 10", completed)
	}
	if c.Inflight() != 0 {
		t.Fatalf("inflight = %d after drain", c.Inflight())
	}
}

func TestSlotZeroedAfterService(t *testing.T) {
	cfg := smallConfig()
	cl, srv, clients := newHERD(t, cfg, 1)
	key := kv.FromUint64(7)
	clients[0].Put(key, []byte("zzz"), nil)
	cl.Eng.Run()
	// Every slot tail (LEN + keyhash) must be zero after service.
	raw := srv.region.Bytes()
	for slot := 0; slot < len(raw)/SlotSize; slot++ {
		tail := raw[(slot+1)*SlotSize-int(lenTail) : (slot+1)*SlotSize]
		for _, b := range tail {
			if b != 0 {
				t.Fatalf("slot %d tail not zeroed: % x", slot, tail)
			}
		}
	}
}

func TestSlotIndexLayout(t *testing.T) {
	// Figure 8 arithmetic: distinct (s, c, r mod W) triples map to
	// distinct slots, all within the region.
	cfg := Config{NS: 3, MaxClients: 5, Window: 4}
	seen := make(map[int]bool)
	for s := 0; s < cfg.NS; s++ {
		for c := 0; c < cfg.MaxClients; c++ {
			for r := 0; r < cfg.Window; r++ {
				idx := cfg.SlotIndex(s, c, r)
				if idx < 0 || idx >= cfg.NS*cfg.MaxClients*cfg.Window {
					t.Fatalf("slot %d out of region", idx)
				}
				if seen[idx] {
					t.Fatalf("slot collision at (%d,%d,%d)", s, c, r)
				}
				seen[idx] = true
			}
		}
	}
	// Sequence numbers wrap onto the same W slots.
	if cfg.SlotIndex(1, 2, 0) != cfg.SlotIndex(1, 2, 4) {
		t.Fatal("slot reuse (r mod W) broken")
	}
}

func TestRegionSizeMatchesPaper(t *testing.T) {
	// Paper: NC=200, NS=16, W=2 => ~6 MB.
	cfg := Config{NS: 16, MaxClients: 200, Window: 2}
	if got := cfg.RegionSize(); got != 16*200*2*1024 {
		t.Fatalf("region size = %d", got)
	}
	if cfg.RegionSize() > 8<<20 {
		t.Fatal("region should fit in L3 (~6 MB)")
	}
}

func TestUpdateVisibleAcrossClients(t *testing.T) {
	cl, _, clients := newHERD(t, smallConfig(), 2)
	key := kv.FromUint64(9)
	var got []byte
	clients[0].Put(key, []byte("v1"), func(Result) {
		clients[0].Put(key, []byte("v2"), func(Result) {
			clients[1].Get(key, func(r Result) { got = r.Value })
		})
	})
	cl.Eng.Run()
	if string(got) != "v2" {
		t.Fatalf("cross-client read = %q", got)
	}
}

func TestLargeValueRoundTrip(t *testing.T) {
	cl, srv, clients := newHERD(t, smallConfig(), 1)
	key := kv.FromUint64(11)
	val := bytes.Repeat([]byte{0xab}, 1000)
	var got Result
	clients[0].Put(key, val, func(Result) {
		clients[0].Get(key, func(r Result) { got = r })
	})
	cl.Eng.Run()
	if got.Status != kv.StatusHit || !bytes.Equal(got.Value, val) {
		t.Fatalf("1000 B value round trip failed (status=%v len=%d)", got.Status, len(got.Value))
	}
	// A 1000 B response must have used the non-inlined path.
	_, nonInline := srv.InlineStats()
	if nonInline == 0 {
		t.Fatal("large response was not sent non-inlined")
	}
}

func TestInputValidation(t *testing.T) {
	_, _, clients := newHERD(t, smallConfig(), 1)
	c := clients[0]
	if err := c.Get(kv.Key{}, nil); err == nil {
		t.Fatal("zero-key GET accepted")
	}
	if err := c.Put(kv.Key{}, []byte("x"), nil); err == nil {
		t.Fatal("zero-key PUT accepted")
	}
	if err := c.Put(kv.FromUint64(1), nil, nil); err == nil {
		t.Fatal("empty-value PUT accepted (LEN=0 means GET)")
	}
	if err := c.Put(kv.FromUint64(1), make([]byte, 1001), nil); err == nil {
		t.Fatal("oversized PUT accepted")
	}
}

func TestServerRejectsBadConfig(t *testing.T) {
	cl := cluster.New(cluster.Apt(), 1, 1)
	if _, err := NewServer(cl.Machine(0), Config{NS: 0, MaxClients: 1, Window: 1}); err == nil {
		t.Fatal("NS=0 accepted")
	}
	if _, err := NewServer(cl.Machine(0), Config{NS: 99, MaxClients: 1, Window: 1}); err == nil {
		t.Fatal("NS > cores accepted")
	}
	if _, err := NewServer(cl.Machine(0), Config{NS: 1, MaxClients: 0, Window: 1}); err == nil {
		t.Fatal("MaxClients=0 accepted")
	}
}

func TestClientCapEnforced(t *testing.T) {
	cfg := smallConfig()
	cfg.MaxClients = 1
	cl := cluster.New(cluster.Apt(), 3, 1)
	srv, err := NewServer(cl.Machine(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.ConnectClient(cl.Machine(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.ConnectClient(cl.Machine(2)); err == nil {
		t.Fatal("second client accepted beyond MaxClients")
	}
}

func TestPutLatencyOneRoundTrip(t *testing.T) {
	// HERD's headline: one network round trip per request, ~5 us at
	// saturation, less when idle. An idle round trip must be a handful
	// of microseconds, not multiples.
	cl, _, clients := newHERD(t, smallConfig(), 1)
	var lat sim.Time
	clients[0].Put(kv.FromUint64(3), []byte("x"), func(r Result) { lat = r.Latency })
	cl.Eng.Run()
	if lat < sim.Microsecond || lat > 6*sim.Microsecond {
		t.Fatalf("idle PUT latency = %.2f us, want ~2-4 us", lat.Microseconds())
	}
}

func TestThroughputClosedLoop(t *testing.T) {
	// A few closed-loop clients against a small HERD should sustain
	// multi-Mops in simulated time — a smoke check that the saturation
	// machinery works end to end (precise figures come from the
	// experiment harness).
	cfg := smallConfig()
	cl, _, clients := newHERD(t, cfg, 4)
	var completed uint64
	stop := false
	var issue func(c *Client, i uint64)
	issue = func(c *Client, i uint64) {
		c.Get(kv.FromUint64(i%1000+1), func(Result) {
			completed++
			if !stop {
				issue(c, i+1)
			}
		})
	}
	for ci, c := range clients {
		for w := 0; w < cfg.Window; w++ {
			issue(c, uint64(ci*1000+w))
		}
	}
	cl.Eng.RunUntil(2 * sim.Millisecond)
	stop = true
	cl.Eng.Run()
	mops := float64(completed) / 0.002 / 1e6
	if mops < 1 {
		t.Fatalf("closed-loop throughput = %.2f Mops, want > 1", mops)
	}
}

func TestAccessorsAndConfig(t *testing.T) {
	cl, srv, clients := newHERD(t, smallConfig(), 1)
	if srv.Config().NS != smallConfig().NS {
		t.Fatal("Config accessor")
	}
	c := clients[0]
	if c.id != 0 {
		t.Fatalf("client ID = %d", c.id)
	}
	c.Get(kv.FromUint64(1), nil)
	if c.Inflight() != 1 {
		t.Fatalf("Inflight = %d", c.Inflight())
	}
	cl.Eng.Run()
}
