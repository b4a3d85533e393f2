package core

import (
	"testing"

	"herdkv/internal/kv"
	"herdkv/internal/verbs"
)

// overloadConfig is smallConfig with the admission controller armed:
// a single server process and a queue cap of one, so a burst of
// concurrent requests is guaranteed to trip the shed path.
func overloadConfig() Config {
	cfg := smallConfig()
	cfg.NS = 1
	cfg.AdmissionLimit = 1
	return cfg
}

// TestAdmissionShedsAndRecovers drives a burst through a queue cap of
// one: the server must shed with busy pushback, and the client's
// hint-driven retries must still land every operation eventually —
// busy is backpressure, not failure.
func TestAdmissionShedsAndRecovers(t *testing.T) {
	cl, srv, clients := newHERD(t, overloadConfig(), 2)
	const n = 24
	served := 0
	for i := 0; i < n; i++ {
		c := clients[i%len(clients)]
		c.Get(kv.FromUint64(uint64(i)+1), func(r Result) {
			if r.Err != nil {
				t.Errorf("op failed: %v", r.Err)
			}
			if r.Status != kv.StatusMiss {
				t.Errorf("status = %v, want miss", r.Status)
			}
			served++
		})
	}
	cl.Eng.Run()

	if served != n {
		t.Fatalf("served %d of %d ops", served, n)
	}
	if srv.Shed() == 0 {
		t.Fatal("admission controller never shed under a 2-client burst")
	}
	busy := clients[0].BusyResponses() + clients[1].BusyResponses()
	if busy == 0 {
		t.Fatal("no client saw a busy pushback")
	}
	if f := clients[0].Failed() + clients[1].Failed(); f != 0 {
		t.Fatalf("%d terminal failures; busy retries should absorb the burst", f)
	}
	if rc := clients[0].Reconnects() + clients[1].Reconnects(); rc != 0 {
		t.Fatalf("%d reconnect handshakes; busy must not be read as a crash", rc)
	}
}

// TestAdmissionDisabledNeverSheds pins the default behavior: with
// AdmissionLimit zero the server queues everything, exactly as before
// this subsystem existed.
func TestAdmissionDisabledNeverSheds(t *testing.T) {
	cfg := overloadConfig()
	cfg.AdmissionLimit = 0
	cl, srv, clients := newHERD(t, cfg, 2)
	done := 0
	for i := 0; i < 24; i++ {
		clients[i%2].Get(kv.FromUint64(uint64(i)+1), func(Result) { done++ })
	}
	cl.Eng.Run()
	if done != 24 {
		t.Fatalf("served %d of 24", done)
	}
	if srv.Shed() != 0 {
		t.Fatalf("shed %d with admission control disabled", srv.Shed())
	}
	if b := clients[0].BusyResponses() + clients[1].BusyResponses(); b != 0 {
		t.Fatalf("%d busy responses with admission control disabled", b)
	}
}

// TestAdaptiveWindowShrinksUnderBusy checks the AIMD controller reacts
// to pushback: multiplicative decrease fires, the window never leaves
// [1, Config.Window], and every op still completes.
func TestAdaptiveWindowShrinksUnderBusy(t *testing.T) {
	cfg := overloadConfig()
	cfg.AdaptiveWindow = true
	cl, _, clients := newHERD(t, cfg, 2)
	done := 0
	for i := 0; i < 24; i++ {
		clients[i%2].Get(kv.FromUint64(uint64(i)+1), func(r Result) {
			if r.Err != nil {
				t.Errorf("op failed: %v", r.Err)
			}
			done++
		})
	}
	cl.Eng.Run()

	if done != 24 {
		t.Fatalf("served %d of 24", done)
	}
	shrinks := clients[0].windowShrinks + clients[1].windowShrinks
	if shrinks == 0 {
		t.Fatal("AIMD window never shrank under busy pushback")
	}
	for i, c := range clients {
		if w := c.Window(); w < 1 || w > cfg.Window {
			t.Fatalf("client %d window %d outside [1, %d]", i, w, cfg.Window)
		}
	}
}

// TestAdaptiveWindowRecovers confirms additive increase restores the
// window after congestion clears: shrink it by hammering a capped
// queue, then run an uncontended sequential phase and watch the window
// climb back to the configured ceiling.
func TestAdaptiveWindowRecovers(t *testing.T) {
	cfg := overloadConfig()
	cfg.AdaptiveWindow = true
	cl, _, clients := newHERD(t, cfg, 2)
	c := clients[0]
	burst := 0
	for i := 0; i < 24; i++ {
		clients[i%2].Get(kv.FromUint64(uint64(i)+1), func(Result) { burst++ })
	}
	cl.Eng.Run()
	if burst != 24 {
		t.Fatalf("burst served %d of 24", burst)
	}
	if c.windowShrinks == 0 {
		t.Fatal("burst did not shrink the window; recovery phase proves nothing")
	}

	// Sequential ops never queue behind each other, so every completion
	// is clean growth: +1/cwnd per op, one full window per cwnd ops.
	var next func(i int)
	next = func(i int) {
		if i == 0 {
			return
		}
		c.Get(kv.FromUint64(uint64(i)), func(Result) { next(i - 1) })
	}
	next(200)
	cl.Eng.Run()

	if w := c.Window(); w != cfg.Window {
		t.Fatalf("window %d after 200 clean completions, want back at %d", w, cfg.Window)
	}
}

// TestBusyResponseRejectedWithoutHint pins the structural check: a
// response claiming statusBusy without the fixed-size retry-after hint
// is damage, and damage must not complete (or requeue) any op.
func TestBusyResponseRejectedWithoutHint(t *testing.T) {
	cl, _, clients := newHERD(t, overloadConfig(), 1)
	c := clients[0]
	done := 0
	c.Get(kv.FromUint64(7), func(Result) { done++ })
	cl.Eng.Run()
	if done != 1 {
		t.Fatalf("warmup op did not complete")
	}

	// Hand-deliver a malformed busy response: status byte 3 but a
	// zero-length hint. The client must count it corrupt, not busy.
	before := c.CorruptResponses()
	raw := make([]byte, respHdr)
	raw[0] = statusBusy
	c.handleResponse(0, verbs.Completion{Data: raw})
	if c.CorruptResponses() != before+1 {
		t.Fatalf("malformed busy response not counted corrupt")
	}
	if c.BusyResponses() != 0 {
		t.Fatalf("malformed busy response treated as real pushback")
	}
}
