package core

import (
	"testing"

	"herdkv/internal/cluster"
	"herdkv/internal/kv"
	"herdkv/internal/sim"
)

func TestLossWithoutRetriesHangs(t *testing.T) {
	// Base behavior: with loss and no retries, some ops never complete —
	// the paper's "sacrifices transport-level retransmission".
	cl, _, c := chaosHERD(t, "loss from=0 until=50ms rate=0.3", smallConfig())
	n := 100
	completed := 0
	for i := 0; i < n; i++ {
		c.Get(kv.FromUint64(uint64(i+1)), func(Result) { completed++ })
	}
	cl.Eng.RunUntil(50 * sim.Millisecond)
	if completed == n {
		t.Fatal("all ops completed despite 30% loss and no retries")
	}
	if cl.Faults().Drops() == 0 {
		t.Fatal("the loss window dropped no packet")
	}
}

func TestRetriesRecoverFromLoss(t *testing.T) {
	cfg := smallConfig()
	cfg.RetryTimeout = 100 * sim.Microsecond
	cfg.MaxRetries = 25
	cl, _, c := chaosHERD(t, "loss from=0 until=400ms rate=0.2", cfg)

	key := kv.FromUint64(77)
	n := 60
	completed, ok := 0, 0
	// Sequential ops: each waits for the previous (FIFO hazards under
	// retry are only safe when the timeout exceeds true latency, which
	// sequential issue guarantees here).
	var next func(i int)
	next = func(i int) {
		if i >= n {
			return
		}
		if i%2 == 0 {
			c.Put(key, []byte{byte(i)}, func(r Result) {
				completed++
				if r.Status == kv.StatusHit {
					ok++
				}
				next(i + 1)
			})
		} else {
			c.Get(key, func(r Result) {
				completed++
				if r.Status == kv.StatusHit && r.Value[0] == byte(i-1) {
					ok++
				}
				next(i + 1)
			})
		}
	}
	next(0)
	cl.Eng.RunUntil(400 * sim.Millisecond)

	if completed != n {
		t.Fatalf("completed %d/%d under 20%% loss with retries", completed, n)
	}
	if ok != n {
		t.Fatalf("correct results %d/%d", ok, n)
	}
	if c.Retries() == 0 || cl.Faults().Drops() == 0 {
		t.Fatalf("%d retries and %d dropped packets under 20%% loss, want both nonzero", c.Retries(), cl.Faults().Drops())
	}
}

func TestRetryTimerNoOpWhenLossless(t *testing.T) {
	cfg := smallConfig()
	cfg.RetryTimeout = 50 * sim.Microsecond
	cl, _, c := chaosHERD(t, "", cfg)
	completed := 0
	for i := 0; i < 50; i++ {
		c.Get(kv.FromUint64(uint64(i+1)), func(r kv.Result) {
			if r.Err == nil {
				completed++
			}
		})
	}
	cl.Eng.Run()
	if c.Retries() != 0 {
		t.Fatalf("lossless run performed %d retries", c.Retries())
	}
	if completed != 50 {
		t.Fatalf("completed = %d", completed)
	}
}

// TestRetrySchedule pins the client's fixed retry schedule: retry k
// waits RetryTimeout·2^k capped at 16×, reconnect attempt k waits
// 20·RetryTimeout·2^k uncapped, and each delay d is stretched by a
// seeded jitter in [0, 0.1·d].
func TestRetrySchedule(t *testing.T) {
	cfg := smallConfig()
	cfg.RetryTimeout = 12 * sim.Microsecond
	c := &Client{srv: &Server{cfg: cfg}, rng: sim.NewRand(7)}
	ref := sim.NewRand(7) // the client's draws, to pin each jitter exactly
	check := func(what string, k int, got, d sim.Time) {
		t.Helper()
		want := d + sim.Time(ref.Float64()*0.1*float64(d))
		if got != want || got < d || got > d+d/10 {
			t.Errorf("%s %d: %d ps, want %d ps (base %d ps + jitter up to %d ps)", what, k, got, want, d, d/10)
		}
	}
	for k, mult := range []sim.Time{1, 2, 4, 8, 16, 16} {
		check("retry", k, c.retryDelay(k), mult*cfg.RetryTimeout)
	}
	for k, mult := range []sim.Time{20, 40, 80, 160, 320, 640} {
		check("reconnect", k, c.reconnectTimeout(k), mult*cfg.RetryTimeout)
	}
}

// TestJitterSeededLazily checks that a client builds its jitter source
// only at its first draw, and that the draws are those of a source
// seeded eagerly at connect time from the machine seed and client id.
func TestJitterSeededLazily(t *testing.T) {
	cl := cluster.New(cluster.Apt(), 2, 5)
	srv, err := NewServer(cl.Machine(0), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := cl.Machine(1)
	for id := range 3 {
		c, err := srv.ConnectClient(m)
		if err != nil {
			t.Fatal(err)
		}
		if c.rng != nil {
			t.Fatalf("client %d built its jitter source before any draw", id)
		}
		ref := sim.NewRand(m.Seed*4099 + int64(id))
		d := 12 * sim.Microsecond
		for k := range 64 {
			want := d + sim.Time(ref.Float64()*retryJitter*float64(d))
			if got := c.jitter(d); got != want {
				t.Fatalf("client %d draw %d: %d ps, want %d ps", id, k, got, want)
			}
		}
	}
}

func TestGapRecovery(t *testing.T) {
	// Deterministic single-request loss: request 1 is dropped while the
	// fabric is fully lossy; later requests to the same process complete
	// normally (response matching is by slot sequence, not FIFO), and
	// request 1 eventually completes via its retry.
	cfg := smallConfig()
	cfg.NS = 1 // force all ops through one process
	cfg.RetryTimeout = 80 * sim.Microsecond
	cfg.MaxRetries = 30

	// Every packet sent in the first 10 us is lost.
	cl, srv, c := chaosHERD(t, "loss from=0 until=10us rate=1", cfg)
	if now := cl.Eng.Now(); now != 0 {
		t.Fatalf("set-up ran to %v, past the loss window's start", now)
	}

	var order []int
	c.Put(kv.FromUint64(1), []byte{1}, func(r Result) {
		if r.Status == kv.StatusHit {
			order = append(order, 1)
		}
	})
	cl.Eng.RunFor(10 * sim.Microsecond) // request 1 is lost in this window
	for i := 2; i <= 4; i++ {
		i := i
		c.Put(kv.FromUint64(uint64(i)), []byte{byte(i)}, func(r Result) {
			if r.Status == kv.StatusHit {
				order = append(order, i)
			}
		})
	}
	// Later requests complete without waiting for the lost one.
	cl.Eng.RunFor(30 * sim.Microsecond)
	if len(order) != 3 {
		t.Fatalf("later requests should have completed: %v", order)
	}
	// The retry recovers request 1.
	cl.Eng.RunUntil(10 * sim.Millisecond)
	if len(order) != 4 || order[3] != 1 {
		t.Fatalf("gap not recovered: %v", order)
	}
	if c.Retries() == 0 || cl.Faults().Drops() == 0 {
		t.Fatalf("%d retries and %d dropped packets, want both nonzero", c.Retries(), cl.Faults().Drops())
	}
	// And the data really landed.
	if v, ok := srv.Partition(0).Get(kv.FromUint64(1)); !ok || v[0] != 1 {
		t.Fatal("retried PUT not applied")
	}
}
