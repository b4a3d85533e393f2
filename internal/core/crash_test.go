package core

import (
	"errors"
	"testing"

	"herdkv/internal/cluster"
	"herdkv/internal/fault"
	"herdkv/internal/kv"
	"herdkv/internal/mica"
	"herdkv/internal/sim"
)

// chaosHERD builds a 1-server, 1-client deployment whose fabric runs
// the given fault script, with retries enabled and the crash target
// registered and armed.
func chaosHERD(t *testing.T, script string, cfg Config) (*cluster.Cluster, *Server, *Client) {
	t.Helper()
	sched, err := fault.ParseSchedule(script)
	if err != nil {
		t.Fatal(err)
	}
	spec := cluster.Apt()
	spec.Faults = sched
	cl := cluster.New(spec, 2, 9)
	srv, err := NewServer(cl.Machine(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.Faults().SetCrashTarget(0, srv)
	cl.Faults().Arm()
	c, err := srv.ConnectClient(cl.Machine(1))
	if err != nil {
		t.Fatal(err)
	}
	return cl, srv, c
}

// chaosConfig is smallConfig with a fast retry/reconnect policy so
// crash windows resolve within test-sized virtual time.
func chaosConfig() Config {
	cfg := smallConfig()
	cfg.RetryTimeout = 30 * sim.Microsecond
	return cfg
}

func TestCrashWithoutRestartFailsTerminally(t *testing.T) {
	cl, srv, c := chaosHERD(t, "crash node=0 at=10us", chaosConfig())

	var errs, oks, calls int
	for i := 0; i < 8; i++ {
		i := i
		cl.Eng.At(sim.Time(i)*20*sim.Microsecond, func() {
			c.Get(kv.FromUint64(uint64(i+1)), func(r Result) {
				calls++
				if r.Err != nil {
					if !errors.Is(r.Err, ErrTimedOut) {
						t.Errorf("op %d: err = %v, want ErrTimedOut", i, r.Err)
					}
					errs++
				} else {
					oks++
				}
			})
		})
	}
	// Run() drains to an empty event queue: every op must resolve — a
	// hung op would leave the engine idle with calls < 8 forever.
	cl.Eng.Run()

	if calls != 8 {
		t.Fatalf("callbacks = %d, want exactly 8", calls)
	}
	if !srv.Down() {
		t.Fatal("server not down")
	}
	// The first op (issued at 0, served before the 10us crash) may
	// succeed; everything after the crash must fail terminally.
	if errs < 7 {
		t.Fatalf("terminal errors = %d (ok = %d), want >= 7", errs, oks)
	}
	if c.Inflight() != 0 {
		t.Fatalf("inflight = %d after drain", c.Inflight())
	}
}

// TestCrashRestartRecovery is the end-to-end chaos check: a server
// crash mid-load fails in-flight and crash-window ops terminally within
// their retry budget, the client reconnects after the restart, and
// every op issued once recovery completes succeeds. All timing is
// virtual, so the run is deterministic.
func TestCrashRestartRecovery(t *testing.T) {
	const (
		crashAt   = 1 * sim.Millisecond
		restartAt = 2 * sim.Millisecond
		recovered = 3 * sim.Millisecond // restart + generous handshake slack
		endAt     = 5 * sim.Millisecond
	)
	cl, srv, c := chaosHERD(t, "crash node=0 at=1ms restart=2ms", chaosConfig())

	type outcome struct {
		at   sim.Time
		err  error
		call int
	}
	var ops []*outcome
	var issue func()
	issue = func() {
		if cl.Eng.Now() >= endAt {
			return
		}
		o := &outcome{at: cl.Eng.Now()}
		ops = append(ops, o)
		c.Put(kv.FromUint64(uint64(len(ops))), []byte("v"), func(r Result) {
			o.call++
			o.err = r.Err
			issue()
		})
	}
	issue()
	cl.Eng.RunUntil(endAt)
	cl.Eng.Run() // drain: every op resolves, or this never returns

	var okBefore, errWindow, lateErr int
	for i, o := range ops {
		if o.call != 1 {
			t.Fatalf("op %d (issued %v): %d callbacks, want exactly 1", i, o.at, o.call)
		}
		switch {
		case o.at < crashAt && o.err == nil:
			okBefore++
		case o.err != nil && o.at >= recovered:
			lateErr++
		case o.err != nil:
			errWindow++
		}
	}
	if okBefore == 0 {
		t.Fatal("no successes before the crash")
	}
	if errWindow == 0 {
		t.Fatal("no terminal errors during the outage")
	}
	if lateErr != 0 {
		t.Fatalf("%d ops failed after recovery should have completed", lateErr)
	}
	if c.Reconnects() == 0 {
		t.Fatal("WRITE-mode client recovered without a reconnect handshake")
	}
	if c.DupResponses() != 0 {
		t.Fatalf("%d duplicate responses on a loss-free fabric: a stale retry timer retransmitted", c.DupResponses())
	}
	if c.Inflight() != 0 {
		t.Fatalf("inflight = %d after drain", c.Inflight())
	}
	if srv.Down() {
		t.Fatal("server still down after restart")
	}
}

// TestCrashRecoverySendMode: SEND/SEND clients address the server
// per-message, so they must recover from a crash through retries alone,
// with no reconnect handshake.
func TestCrashRecoverySendMode(t *testing.T) {
	cfg := chaosConfig()
	cfg.UseSendRequests = true
	cl, _, c := chaosHERD(t, "crash node=0 at=100us restart=200us", cfg)

	var lateOK, lateCalls int
	for i := 0; i < 4; i++ {
		i := i
		// Issue well after the restart: retries find the fresh queue
		// pairs without any handshake.
		cl.Eng.At(400*sim.Microsecond+sim.Time(i)*10*sim.Microsecond, func() {
			c.Get(kv.FromUint64(uint64(i+1)), func(r Result) {
				lateCalls++
				if r.Err == nil {
					lateOK++
				}
			})
		})
	}
	cl.Eng.Run()
	if lateCalls != 4 || lateOK != 4 {
		t.Fatalf("post-restart ops: %d calls, %d ok, want 4/4", lateCalls, lateOK)
	}
	if c.Reconnects() != 0 {
		t.Fatalf("SEND-mode client ran %d reconnect handshakes", c.Reconnects())
	}
}

// TestSlotCollisionParks: responses echo only r mod Window, so an op
// whose predecessor in the same window slot is still outstanding
// (stalled on a retry) must park rather than issue — otherwise the
// stalled op steals the newcomer's response and completes with the
// wrong key's value. A brief blackout drops exactly one request;
// while it awaits its retry, Window more ops cycle through the same
// server process and the last one lands on the stalled op's slot.
func TestSlotCollisionParks(t *testing.T) {
	cfg := chaosConfig()
	cl, srv, c := chaosHERD(t, "blackout link=1>0 from=0 until=2us", cfg)

	// Five keys on the same server process: the fifth reuses the
	// first's window slot (r=4, Window=4).
	var keys []kv.Key
	proc := -1
	for n := uint64(1); len(keys) < cfg.Window+1; n++ {
		k := kv.FromUint64(n)
		p := mica.Partition(k, cfg.NS)
		if proc == -1 {
			proc = p
		}
		if p == proc {
			keys = append(keys, k)
		}
	}
	vals := make([][]byte, len(keys))
	for i, k := range keys {
		vals[i] = []byte{byte(i + 1), 0xee}
		if err := srv.Preload(k, vals[i]); err != nil {
			t.Fatal(err)
		}
	}

	got := make([][]byte, len(keys))
	get := func(i int) func() {
		return func() {
			c.Get(keys[i], func(r Result) {
				if r.Err != nil || r.Status != kv.StatusHit {
					t.Errorf("GET %d failed: %+v", i, r)
				}
				got[i] = r.Value
			})
		}
	}
	// Key 0's request is dropped by the blackout; it stalls until its
	// ~30us retry. Keys 1..3 run after the blackout and complete,
	// freeing the client's global window. Key 4 then wants slot 0.
	cl.Eng.At(0, get(0))
	for i := 1; i <= 3; i++ {
		cl.Eng.At(sim.Time(2+i)*sim.Microsecond, get(i))
	}
	cl.Eng.At(15*sim.Microsecond, get(4))
	cl.Eng.Run()

	for i := range keys {
		if string(got[i]) != string(vals[i]) {
			t.Errorf("GET %d returned %x, want %x (response cross-matched)", i, got[i], vals[i])
		}
	}
	if c.Retries() == 0 {
		t.Fatal("blackout did not force a retry")
	}
}

// TestRequestCorruptionRejected: a corruption window on the client's
// request link delivers damaged WRITEs; the server's keyhash/length
// checks refuse them (no wrong data is served), and the client's retry
// after the window succeeds.
func TestRequestCorruptionRejected(t *testing.T) {
	cfg := chaosConfig()
	cl, srv, c := chaosHERD(t, "corrupt link=1>0 from=0 until=20us rate=1", cfg)

	key := kv.FromUint64(42)
	var res Result
	calls := 0
	c.Put(key, []byte("precious"), func(r Result) { res = r; calls++ })
	cl.Eng.Run()

	if calls != 1 || res.Err != nil || res.Status != kv.StatusHit {
		t.Fatalf("PUT through corruption window: calls=%d res=%+v", calls, res)
	}
	if srv.Rejected() == 0 {
		t.Fatal("server accepted a corrupted request")
	}
	if c.Retries() == 0 {
		t.Fatal("no retry recorded despite a corrupted first attempt")
	}
	var got Result
	c.Get(key, func(r Result) { got = r })
	cl.Eng.Run()
	if got.Status != kv.StatusHit || string(got.Value) != "precious" {
		t.Fatalf("GET after corrupted-then-retried PUT: %+v", got)
	}
}

// TestResponseCorruptionRejected: corruption on the response link
// damages the UD SEND; the client's status check discards it rather
// than completing an op with garbage, and the retry path re-fetches.
func TestResponseCorruptionRejected(t *testing.T) {
	cfg := chaosConfig()
	cl, srv, c := chaosHERD(t, "corrupt link=0>1 from=0 until=20us rate=1", cfg)

	key := kv.FromUint64(7)
	if err := srv.Preload(key, []byte("truth")); err != nil {
		t.Fatal(err)
	}
	var res Result
	calls := 0
	c.Get(key, func(r Result) { res = r; calls++ })
	cl.Eng.Run()

	if calls != 1 || res.Err != nil || res.Status != kv.StatusHit || string(res.Value) != "truth" {
		t.Fatalf("GET through response corruption: calls=%d res=%+v", calls, res)
	}
	if c.CorruptResponses() == 0 {
		t.Fatal("client accepted a corrupted response")
	}
}
