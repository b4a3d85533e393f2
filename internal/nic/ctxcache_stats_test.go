package nic

import (
	"testing"

	"herdkv/internal/pcie"
	"herdkv/internal/sim"
	"herdkv/internal/telemetry"
	"herdkv/internal/wire"
)

// TestEvictionOrderAndCounts pins the LRU eviction order, the victims
// OnEvict reports, and which touches miss.
func TestEvictionOrderAndCounts(t *testing.T) {
	c := NewContextCache(2)
	var victims []uint64
	c.OnEvict(func(v uint64) { victims = append(victims, v) })
	resident := func(key uint64) bool { _, ok := c.byKey[key]; return ok }
	misses := make(map[uint64]int)
	touch := func(key uint64) {
		if !c.Touch(key) {
			misses[key]++
		}
	}

	touch(1)
	touch(2)
	touch(3) // evicts 1 (LRU)
	if c.Evictions() != 1 || len(victims) != 1 || victims[0] != 1 {
		t.Fatalf("evictions=%d victims=%v, want 1 and [1]", c.Evictions(), victims)
	}
	if resident(1) || !resident(2) || !resident(3) {
		t.Fatal("residency after first eviction is wrong")
	}
	touch(2) // 2 becomes MRU; 3 is now LRU
	touch(4) // must evict 3, not the recently touched 2
	if len(victims) != 2 || victims[1] != 3 {
		t.Fatalf("eviction order = %v, want [1 3]", victims)
	}
	if !resident(2) || !resident(4) || resident(3) {
		t.Fatal("residency after second eviction is wrong")
	}
	if misses[1] != 1 || misses[2] != 1 || misses[3] != 1 || misses[4] != 1 {
		t.Fatalf("per-key misses = %v, want one each", misses)
	}
	// Re-touching the evicted key misses again and displaces the LRU (2).
	touch(1)
	if misses[1] != 2 {
		t.Fatalf("key 1 missed %d times after re-miss, want 2", misses[1])
	}
	if len(victims) != 3 || victims[2] != 2 {
		t.Fatalf("eviction order = %v, want [1 3 2]", victims)
	}
	if c.Misses() != 5 {
		t.Fatalf("misses = %d, want 5", c.Misses())
	}
}

// TestMissStallCharging verifies every context miss — cold or
// eviction-induced — charges exactly the calibrated PU stall and added
// latency, and hits charge nothing. This is the accounting the Figure 12
// cliff reproduction rests on (docs/SCALABILITY.md).
func TestMissStallCharging(t *testing.T) {
	_, n := newNIC()
	p := n.Params()
	cap := p.RecvCtxCap

	// Working set one past capacity, cycled: an LRU misses every access.
	keys := cap + 1
	rounds := 3
	var pu, lat sim.Time
	for r := 0; r < rounds; r++ {
		for k := 0; k < keys; k++ {
			dpu, dlat := n.TouchRecvCtx(uint64(k))
			pu += dpu
			lat += dlat
		}
	}
	misses := n.RecvCtxCache().Misses()
	if misses != uint64(rounds*keys) {
		t.Fatalf("misses = %d, want %d (cyclic sweep past capacity always misses)", misses, rounds*keys)
	}
	if want := sim.Time(misses) * p.CtxMissPU; pu != want {
		t.Fatalf("accumulated PU stall = %v, want misses x CtxMissPU = %v", pu, want)
	}
	if want := sim.Time(misses) * p.CtxMissLat; lat != want {
		t.Fatalf("accumulated latency charge = %v, want misses x CtxMissLat = %v", lat, want)
	}
	if n.RecvCtxCache().Evictions() != misses-uint64(cap) {
		t.Fatalf("evictions = %d, want misses - capacity = %d",
			n.RecvCtxCache().Evictions(), misses-uint64(cap))
	}

	// A working set within capacity stops stalling after the cold pass.
	n.TouchSendCtx(1)
	if dpu, dlat := n.TouchSendCtx(1); dpu != 0 || dlat != 0 {
		t.Fatalf("hit charged (%v,%v), want zero", dpu, dlat)
	}
}

// TestPerQPCtxCounters checks the QP-scoped miss/evict counters
// (nic.ctxcache.<side>.qp.n<node>.q<qpn>.{misses,evicts}).
func TestPerQPCtxCounters(t *testing.T) {
	eng := sim.New()
	bus := pcie.NewBus(eng, pcie.Gen3x8())
	net := wire.NewNetwork(eng, wire.InfiniBand56())
	n := New(eng, ConnectX3(), bus, net, 3)
	sink := telemetry.New()
	sink.PerQP = true
	n.SetTelemetry(sink)

	node := uint64(3) << 32
	cap := n.Params().SendCtxCap
	for k := 0; k <= cap; k++ { // one past capacity: key 0 gets evicted
		n.TouchSendCtx(node | uint64(k))
	}
	n.TouchSendCtx(node | 0) // re-miss on the evicted context

	if got := sink.Registry.Counter("nic.ctxcache.send.qp.n3.q0.misses").Value(); got != 2 {
		t.Fatalf("per-QP miss counter = %d, want 2", got)
	}
	if got := sink.Registry.Counter("nic.ctxcache.send.qp.n3.q0.evicts").Value(); got != 1 {
		t.Fatalf("per-QP evict counter = %d, want 1", got)
	}
	if got := sink.Registry.Counter("nic.ctxcache.send.evicts").Value(); got != 2 {
		// Key 0's return displaced the then-LRU key 1: two evictions total.
		t.Fatalf("aggregate evict counter = %d, want 2", got)
	}

	// Without PerQP no per-QP names are created.
	n2 := New(eng, ConnectX3(), bus, net, 4)
	sink2 := telemetry.New()
	n2.SetTelemetry(sink2)
	n2.TouchSendCtx(1)
	if got := sink2.Registry.Counter("nic.ctxcache.send.qp.n0.q1.misses").Value(); got != 0 {
		t.Fatalf("per-QP counter created without PerQP: %d", got)
	}
}
