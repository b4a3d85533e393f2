package nic

import (
	"testing"
	"testing/quick"

	"herdkv/internal/pcie"
	"herdkv/internal/sim"
	"herdkv/internal/wire"
)

func newNIC() (*sim.Engine, *NIC) {
	eng := sim.New()
	bus := pcie.NewBus(eng, pcie.Gen3x8())
	net := wire.NewNetwork(eng, wire.InfiniBand56())
	return eng, New(eng, ConnectX3(), bus, net, 0)
}

func TestLRUBasics(t *testing.T) {
	c := NewContextCache(2)
	if c.Touch(1) {
		t.Fatal("first touch should miss")
	}
	if !c.Touch(1) {
		t.Fatal("second touch should hit")
	}
	c.Touch(2)
	c.Touch(3) // evicts 1 (LRU)
	if c.Touch(1) {
		t.Fatal("1 should have been evicted")
	}
	if !c.Touch(3) {
		t.Fatal("3 should be resident")
	}
	if c.ll.Len() != 2 {
		t.Fatalf("resident = %d, want 2", c.ll.Len())
	}
}

func TestLRURecencyOrder(t *testing.T) {
	c := NewContextCache(2)
	c.Touch(1)
	c.Touch(2)
	c.Touch(1) // 1 is now MRU; 2 is LRU
	c.Touch(3) // evicts 2
	if !c.Touch(1) {
		t.Fatal("1 should be resident (was MRU)")
	}
	if c.Touch(2) {
		t.Fatal("2 should have been evicted")
	}
}

func TestUnboundedCacheNeverEvicts(t *testing.T) {
	c := NewContextCache(0)
	for i := uint64(0); i < 1000; i++ {
		c.Touch(i)
	}
	for i := uint64(0); i < 1000; i++ {
		if !c.Touch(i) {
			t.Fatalf("key %d evicted from unbounded cache", i)
		}
	}
}

func TestHitRateAccounting(t *testing.T) {
	c := NewContextCache(4)
	if c.HitRate() != 1 {
		t.Fatal("empty cache HitRate should be 1")
	}
	c.Touch(1)
	c.Touch(1)
	c.Touch(1)
	c.Touch(1)
	if got := c.HitRate(); got != 0.75 {
		t.Fatalf("HitRate = %v, want 0.75", got)
	}
	if c.Hits() != 3 || c.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
}

// Property: working sets within capacity never miss after warmup;
// round-robin over a working set exceeding capacity always misses.
func TestLRUWorkingSetProperty(t *testing.T) {
	f := func(capRaw, setRaw uint8) bool {
		capacity := int(capRaw%32) + 1
		set := int(setRaw%32) + 1
		c := NewContextCache(capacity)
		for i := 0; i < set; i++ {
			c.Touch(uint64(i))
		}
		allHit := true
		for round := 0; round < 3; round++ {
			for i := 0; i < set; i++ {
				if !c.Touch(uint64(i)) {
					allHit = false
				}
			}
		}
		if set <= capacity {
			return allHit
		}
		// Cyclic sweep larger than an LRU always misses everything.
		return c.Hits() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAccessors(t *testing.T) {
	eng, n := newNIC()
	if n.Engine() != eng {
		t.Fatal("Engine accessor")
	}
	if n.Bus() == nil || n.Net() == nil {
		t.Fatal("Bus/Net accessors")
	}
	if n.Node() != 0 {
		t.Fatalf("Node = %v", n.Node())
	}
	if u := n.PUUtilization(); u != 0 {
		t.Fatalf("idle PU utilization = %v", u)
	}
}

func TestTouchRecvCtxAndHitRates(t *testing.T) {
	_, n := newNIC()
	if pu, lat := n.TouchRecvCtx(1); pu == 0 || lat == 0 {
		t.Fatal("first recv-ctx touch should miss")
	}
	if pu, lat := n.TouchRecvCtx(1); pu != 0 || lat != 0 {
		t.Fatal("second recv-ctx touch should hit")
	}
	n.TouchSendCtx(9)
	n.TouchSendCtx(9)
	n.TouchSendCtx(9)
	if hr := n.sendCtx.HitRate(); hr < 0.6 || hr > 0.7 {
		t.Fatalf("send hit rate = %v, want 2/3", hr)
	}
	if hr := n.RecvCtxHitRate(); hr != 0.5 {
		t.Fatalf("recv hit rate = %v, want 0.5", hr)
	}
}

func TestTouchSendCtxPenalties(t *testing.T) {
	_, n := newNIC()
	pu, lat := n.TouchSendCtx(7)
	if pu != n.Params().CtxMissPU || lat != n.Params().CtxMissLat {
		t.Fatalf("miss penalties = (%v,%v), want params", pu, lat)
	}
	pu, lat = n.TouchSendCtx(7)
	if pu != 0 || lat != 0 {
		t.Fatalf("hit penalties = (%v,%v), want zero", pu, lat)
	}
}

func TestSendCtxSmallerThanRecvCtx(t *testing.T) {
	// The requester-side context cache must be the scarcer resource:
	// this asymmetry produces Figure 6.
	p := ConnectX3()
	if p.SendCtxCap >= p.RecvCtxCap {
		t.Fatal("send context capacity should be below recv context capacity")
	}
}

func TestWQEBytes(t *testing.T) {
	_, n := newNIC()
	p := n.Params()
	if n.WQEBytes(wire.UC, 32) != p.WQEBaseRC+32 {
		t.Fatal("UC WQE size wrong")
	}
	if n.WQEBytes(wire.UD, 32) != p.WQEBaseUD+32 {
		t.Fatal("UD WQE size wrong")
	}
	if n.WQEBytes(wire.UD, 0) <= n.WQEBytes(wire.RC, 0) {
		t.Fatal("UD WQE must be larger (address handle)")
	}
}

func TestPUServiceRate(t *testing.T) {
	// RxWrite service must yield ~35+ Mops aggregate (paper's inbound
	// WRITE rate for small payloads).
	eng, n := newNIC()
	count := 0
	k := 100000
	for i := 0; i < k; i++ {
		n.PU(n.Params().RxWrite, func(sim.Time) { count++ })
	}
	eng.Run()
	mops := float64(count) / eng.Now().Seconds() / 1e6
	if mops < 33 || mops > 40 {
		t.Fatalf("inbound WRITE PU rate = %.1f Mops, want ~35-38", mops)
	}
}

func TestReadRatesCalibration(t *testing.T) {
	p := ConnectX3()
	inbound := 1e6 / p.RxReadReq.Nanoseconds() / 1e6 * 1e3 // Mops
	// Outbound READs run over RC and pay the requester's RC state cost.
	outbound := 1e6 / (p.TxReadReq + p.RxReadResp + p.RCReqExtra).Nanoseconds() / 1e6 * 1e3
	if inbound < 24 || inbound > 28 {
		t.Fatalf("inbound READ calibration = %.1f Mops, want ~26", inbound)
	}
	if outbound < 20 || outbound > 24 {
		t.Fatalf("outbound READ calibration = %.1f Mops, want ~22", outbound)
	}
	// The optimized SEND/SEND echo rate is bounded by inbound SEND
	// processing plus the response SEND's WQE work: ~21 Mops.
	echoRate := 1e6 / (p.RxSend + p.TxWQE).Nanoseconds() / 1e6 * 1e3
	if echoRate < 19 || echoRate > 23 {
		t.Fatalf("SEND/SEND echo calibration = %.1f Mops, want ~21", echoRate)
	}
}
