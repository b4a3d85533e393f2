package core

import (
	"bytes"
	"testing"

	"herdkv/internal/cluster"
	"herdkv/internal/kv"
	"herdkv/internal/sim"
)

func sendModeConfig() Config {
	cfg := smallConfig()
	cfg.UseSendRequests = true
	return cfg
}

func TestSendModeRoundTrip(t *testing.T) {
	cl, srv, clients := newHERD(t, sendModeConfig(), 2)
	c := clients[0]
	key := kv.FromUint64(1)
	val := []byte("send/send value")
	var get Result
	c.Put(key, val, func(Result) {
		clients[1].Get(key, func(r Result) { get = r })
	})
	cl.Eng.Run()
	if get.Status != kv.StatusHit || !bytes.Equal(get.Value, val) {
		t.Fatalf("GET = %+v", get)
	}
	gets, _, puts := srv.Stats()
	if gets != 1 || puts != 1 {
		t.Fatalf("server stats gets=%d puts=%d", gets, puts)
	}
}

func TestSendModeManyOps(t *testing.T) {
	cl, _, clients := newHERD(t, sendModeConfig(), 3)
	n := 300
	oks := 0
	for i := 0; i < n; i++ {
		i := i
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
	got := 0
	for i := 0; i < n; i++ {
		i := i
		clients[(i+1)%3].Get(kv.FromUint64(uint64(i+1)), func(r Result) {
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

func TestSendModeLargeValues(t *testing.T) {
	cl, _, clients := newHERD(t, sendModeConfig(), 1)
	key := kv.FromUint64(3)
	val := bytes.Repeat([]byte{0xcd}, 900)
	var get Result
	clients[0].Put(key, val, func(Result) {
		clients[0].Get(key, func(r Result) { get = r })
	})
	cl.Eng.Run()
	if get.Status != kv.StatusHit || !bytes.Equal(get.Value, val) {
		t.Fatalf("900 B send-mode value failed (status=%v len=%d)", get.Status, len(get.Value))
	}
}

func TestSendModeNoConnectedState(t *testing.T) {
	// The whole point of Section 5.5: no UC connections at the server.
	cl, _, clients := newHERD(t, sendModeConfig(), 2)
	for _, c := range clients {
		if c.ucQP != nil {
			t.Fatal("SEND/SEND client created a UC QP")
		}
		if c.sendQP == nil {
			t.Fatal("SEND/SEND client missing its UD request QP")
		}
	}
	_ = cl
}

func TestSendModeRetryRecovers(t *testing.T) {
	cfg := sendModeConfig()
	cfg.RetryTimeout = 100 * sim.Microsecond
	cfg.MaxRetries = 30
	spec := cluster.Apt()
	spec.Link.LossRate = 0.2
	cl := cluster.New(spec, 2, 9)
	srv, err := NewServer(cl.Machine(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := srv.ConnectClient(cl.Machine(1))
	if err != nil {
		t.Fatal(err)
	}
	n := 40
	completed := 0
	var next func(i int)
	next = func(i int) {
		if i >= n {
			return
		}
		c.Put(kv.FromUint64(uint64(i+1)), []byte{byte(i)}, func(r Result) {
			completed++
			next(i + 1)
		})
	}
	next(0)
	cl.Eng.RunUntil(400 * sim.Millisecond)
	if completed != n {
		t.Fatalf("completed %d/%d under loss in SEND mode", completed, n)
	}
	if c.Retries() == 0 {
		t.Fatal("expected retries under 20% loss")
	}
}

func TestSendModeThroughputPenalty(t *testing.T) {
	// Section 5.5 predicts a 4-5 Mops penalty for SEND/SEND vs the
	// WRITE/SEND hybrid at peak.
	measure := func(sendMode bool) float64 {
		cfg := smallConfig()
		cfg.NS = 6
		cfg.MaxClients = 16
		cfg.UseSendRequests = sendMode
		cl := cluster.New(cluster.Apt(), 17, 1)
		srv, err := NewServer(cl.Machine(0), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var completed uint64
		stop := false
		for i := 0; i < 16; i++ {
			c, err := srv.ConnectClient(cl.Machine(1 + i))
			if err != nil {
				t.Fatal(err)
			}
			var loop func(k uint64)
			loop = func(k uint64) {
				c.Get(kv.FromUint64(k%512+1), func(Result) {
					completed++
					if !stop {
						loop(k + 1)
					}
				})
			}
			for w := 0; w < cfg.Window; w++ {
				loop(uint64(i*1000 + w))
			}
		}
		cl.Eng.RunFor(100 * sim.Microsecond)
		start := completed
		cl.Eng.RunFor(300 * sim.Microsecond)
		stop = true
		return float64(completed-start) / 300e-6 / 1e6
	}
	hybrid := measure(false)
	sendSend := measure(true)
	if sendSend >= hybrid {
		t.Fatalf("SEND/SEND (%.1f) should trail WRITE/SEND (%.1f)", sendSend, hybrid)
	}
	if gap := hybrid - sendSend; gap < 2 || gap > 9 {
		t.Fatalf("SEND/SEND penalty = %.1f Mops (hybrid %.1f, send %.1f), want ~4-5",
			gap, hybrid, sendSend)
	}
}

func TestSendModeTinyConfig(t *testing.T) {
	// Regression: a 1-client, 1-window SEND-mode server once posted zero
	// RECVs per process (integer division) and deadlocked.
	cfg := sendModeConfig()
	cfg.MaxClients = 1
	cfg.Window = 1
	cfg.NS = 4
	cl, _, clients := newHERD(t, cfg, 1)
	done := 0
	var next func(i uint64)
	next = func(i uint64) {
		if i >= 20 {
			return
		}
		clients[0].Put(kv.FromUint64(i+1), []byte{byte(i)}, func(r Result) {
			if r.Status == kv.StatusHit {
				done++
			}
			next(i + 1)
		})
	}
	next(0)
	cl.Eng.Run()
	if done != 20 {
		t.Fatalf("completed %d/20 with tiny SEND-mode config", done)
	}
}
