package core

import (
	"bytes"
	"testing"

	"herdkv/internal/cluster"
	"herdkv/internal/kv"
)

func dcConfig() Config {
	cfg := smallConfig()
	cfg.RequestPath = RequestDC
	return cfg
}

func TestDCModeRoundTrip(t *testing.T) {
	cl, _, clients := newHERD(t, dcConfig(), 2)
	key := kv.FromUint64(1)
	val := []byte("over dynamically connected")
	var get Result
	clients[0].Put(key, val, func(Result) {
		clients[1].Get(key, func(r Result) { get = r })
	})
	cl.Eng.Run()
	if get.Status != kv.StatusHit || !bytes.Equal(get.Value, val) {
		t.Fatalf("GET = %+v", get)
	}
}

func TestDCModeManyOps(t *testing.T) {
	cl, _, clients := newHERD(t, dcConfig(), 3)
	n := 300
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
		t.Fatalf("put oks = %d/%d", oks, n)
	}
}

func TestDCModeServerContextScales(t *testing.T) {
	// The point of DC: many clients, one responder context, no misses.
	cfg := dcConfig()
	cfg.MaxClients = 350
	cl := cluster.New(cluster.Apt(), 1+350, 1)
	srv, err := NewServer(cl.Machine(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	for i := 0; i < 350; i++ {
		c, err := srv.ConnectClient(cl.Machine(1 + i))
		if err != nil {
			t.Fatal(err)
		}
		c.Put(kv.FromUint64(uint64(i+1)), []byte{1}, func(r Result) {
			if r.Status == kv.StatusHit {
				done++
			}
		})
	}
	cl.Eng.Run()
	if done != 350 {
		t.Fatalf("completed %d/350", done)
	}
	// Inbound requests share one DC target context.
	if hr := cl.Machine(0).Verbs.NIC().RecvCtxHitRate(); hr < 0.98 {
		t.Fatalf("server recv-context hit rate = %.3f with 350 DC clients, want ~1", hr)
	}
}
