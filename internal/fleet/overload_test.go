package fleet

import (
	"bytes"
	"testing"

	"herdkv/internal/cluster"
	"herdkv/internal/kv"
	"herdkv/internal/sim"
)

// brownoutConfig arms the busy path: a tiny op deadline turns the
// first pushback terminal, so fleet-level failover logic sees
// StatusBusy promptly instead of spinning on server hints.
func brownoutConfig() Config {
	cfg := testConfig()
	cfg.Herd.OpDeadline = 1 * sim.Microsecond
	return cfg
}

// newFleetCfg is newFleet with an explicit config.
func newFleetCfg(t *testing.T, cfg Config, nShards, nClients int, seed int64) (*cluster.Cluster, *Deployment, []*Client) {
	t.Helper()
	cl := cluster.New(cluster.Apt(), nShards+nClients+1, seed)
	machines := make([]*cluster.Machine, nShards)
	for i := range machines {
		machines[i] = cl.Machine(i)
	}
	d, err := NewDeployment(machines, cfg)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*Client, nClients)
	for i := range clients {
		clients[i], err = d.ConnectClient(cl.Machine(nShards + i))
		if err != nil {
			t.Fatal(err)
		}
	}
	return cl, d, clients
}

// TestBusyNeverSuspects is the brownout regression test: reads that
// fail over because the primary shed them with StatusBusy must not
// start a probation or a reconnect — busy is backpressure from a live
// shard, and treating it as a crash would churn failover exactly when
// the fleet can least afford it.
func TestBusyNeverSuspects(t *testing.T) {
	cl, d, clients := newFleetCfg(t, brownoutConfig(), 2, 1, 11)
	c := clients[0]
	key := kv.FromUint64(77)
	val := []byte("brownout value")
	if err := d.Preload(key, val); err != nil {
		t.Fatal(err)
	}
	reps := d.Replicas(key)
	if len(reps) < 2 {
		t.Fatalf("replica set %v too small", reps)
	}
	primary := reps[0]
	// Brown out only the primary: queue cap 1 sheds every request that
	// arrives while one is in service.
	d.Server(primary).SetAdmissionLimit(1)

	const n = 16
	served := 0
	for i := 0; i < n; i++ {
		c.Get(key, func(r kv.Result) {
			if r.Err != nil {
				t.Errorf("get failed: %v (status %v)", r.Err, r.Status)
				return
			}
			if !bytes.Equal(r.Value, val) {
				t.Errorf("get value %q", r.Value)
			}
			served++
		})
	}
	cl.Eng.Run()

	if served != n {
		t.Fatalf("served %d of %d reads", served, n)
	}
	if s := c.Suspected(); s != 0 {
		t.Fatalf("busy failover started %d probations; brownout must not suspect", s)
	}
	if c.ReplicaReads() == 0 {
		t.Fatal("no read was steered to the replica")
	}
	if c.BreakerOpens() == 0 {
		t.Fatal("breaker never opened under sustained busy pushback")
	}
	if f := c.Failed(); f != 0 {
		t.Fatalf("%d fleet-level failures; the replica should have served", f)
	}
}

// TestTimeoutStillSuspects pins the blackout path: a crash-class
// terminal timeout keeps starting probations exactly as before the
// breaker existed.
func TestTimeoutStillSuspects(t *testing.T) {
	cl, d, clients := newFleet(t, 2, 1, 12)
	c := clients[0]
	key := kv.FromUint64(5)
	if err := d.Preload(key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	primary := d.Replicas(key)[0]
	d.Server(primary).Crash()

	ok := false
	c.Get(key, func(r kv.Result) { ok = r.Err == nil })
	cl.Eng.Run()
	if !ok {
		t.Fatal("replica did not serve after primary crash")
	}
	if c.Suspected() == 0 {
		t.Fatal("terminal timeout no longer suspects the shard")
	}
	if c.BreakerOpens() != 0 {
		t.Fatal("timeout fed the brownout breaker; blackout and brownout must stay separate")
	}
}

// TestBreakerStateMachine drives the per-shard breaker directly:
// threshold trips it open, reads steer away, the cooldown admits one
// half-open probe, a busy probe re-opens, and a served probe closes.
func TestBreakerStateMachine(t *testing.T) {
	cl, _, clients := newFleet(t, 2, 1, 13)
	c := clients[0]
	th := breakerThreshold

	for i := 0; i < th-1; i++ {
		c.noteBusy(0)
	}
	if c.BreakerOpen(0) {
		t.Fatalf("breaker open after %d busy failures (threshold %d)", th-1, th)
	}
	c.noteBusy(0)
	if !c.BreakerOpen(0) {
		t.Fatal("breaker closed at threshold")
	}
	if got := c.readOrder(nil, []int{0, 1}); got[0] != 1 || got[1] != 0 {
		t.Fatalf("readOrder = %v with shard 0 breaker open, want [1 0]", got)
	}

	// Cooldown not yet lapsed: still steered away, no probe.
	c.noteReadIssue(0)
	if c.BreakerProbes() != 0 {
		t.Fatal("probe before cooldown lapsed")
	}

	// Advance past the cooldown; the shard becomes probe-eligible.
	fired := false
	cl.Eng.After(breakerCooldown+sim.Microsecond, func() { fired = true })
	cl.Eng.Run()
	if !fired {
		t.Fatal("engine did not advance")
	}
	if got := c.readOrder(nil, []int{0, 1}); got[0] != 0 {
		t.Fatalf("readOrder = %v after cooldown, want probe-eligible shard 0 first", got)
	}
	c.noteReadIssue(0)
	if c.BreakerProbes() != 1 {
		t.Fatal("half-open probe not counted")
	}
	// While the probe is in flight the shard is not offered again.
	if got := c.readOrder(nil, []int{0, 1}); got[0] != 1 {
		t.Fatalf("readOrder = %v mid-probe, want shard 0 last", got)
	}

	// Probe fails busy: re-open, another cooldown.
	c.noteBusy(0)
	if !c.BreakerOpen(0) {
		t.Fatal("failed probe did not re-open the breaker")
	}
	fired = false
	cl.Eng.After(breakerCooldown+sim.Microsecond, func() { fired = true })
	cl.Eng.Run()
	if !fired {
		t.Fatal("engine did not advance")
	}
	c.noteReadIssue(0)
	c.noteServed(0)
	if c.BreakerOpen(0) {
		t.Fatal("served probe did not close the breaker")
	}
	if c.BreakerCloses() != 1 {
		t.Fatalf("BreakerCloses = %d, want 1", c.BreakerCloses())
	}
	if got := c.readOrder(nil, []int{0, 1}); got[0] != 0 {
		t.Fatalf("readOrder = %v after close, want ring order restored", got)
	}
}
