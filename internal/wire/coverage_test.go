package wire

import (
	"testing"

	"herdkv/internal/sim"
)

func TestDCHeaderAndString(t *testing.T) {
	p := InfiniBand56()
	if p.Header(DC) != p.HdrRC+12 {
		t.Fatalf("DC header = %d, want RC+12", p.Header(DC))
	}
	if DC.String() != "DC" {
		t.Fatal("DC name")
	}
}

func TestNetworkParams(t *testing.T) {
	n := NewNetwork(sim.New(), InfiniBand56())
	if n.Params().Gbps != 56 {
		t.Fatal("Params accessor")
	}
}

func TestUtilizationAccessors(t *testing.T) {
	eng := sim.New()
	n := NewNetwork(eng, InfiniBand56())
	n.AddNode(0)
	n.AddNode(1)
	for i := 0; i < 100; i++ {
		n.Send(0, 1, UC, 1024, nil)
	}
	eng.Run()
	if n.EgressUtilization(0) <= 0 {
		t.Fatal("egress utilization should be positive")
	}
	if n.IngressUtilization(1) <= 0 {
		t.Fatal("ingress utilization should be positive")
	}
	if n.IngressUtilization(0) != 0 {
		t.Fatal("node 0 received nothing")
	}
}

func TestMTUSegmentation(t *testing.T) {
	eng := sim.New()
	p := InfiniBand56()
	p.MTU = 1024
	n := NewNetwork(eng, p)
	n.AddNode(0)
	n.AddNode(1)
	// A 6 KB message must segment: total wire time exceeds a single
	// unsegmented serialization by the extra headers.
	var bigAt sim.Time
	n.SendWire(0, 1, 6000, func(end sim.Time) { bigAt = end })
	eng.Run()
	if bigAt == 0 {
		t.Fatal("segmented message not delivered")
	}
	segments := 0
	for rest := 6000; rest > 1024+p.HdrUC; rest = rest - (1024 + p.HdrUC) + p.HdrUC {
		segments++
	}
	if n.Sent() != uint64(segments+1) {
		t.Fatalf("sent %d packets, want %d", n.Sent(), segments+1)
	}
	// Small messages stay single-packet.
	before := n.Sent()
	n.SendWire(0, 1, 512, nil)
	eng.Run()
	if n.Sent() != before+1 {
		t.Fatal("small message segmented")
	}
}

func TestMTUSegmentLossSuppressesDelivery(t *testing.T) {
	eng := sim.New()
	p := InfiniBand56()
	p.MTU = 256
	n := NewNetwork(eng, p)
	n.AddNode(0)
	n.AddNode(1)
	rnd, dropped := sim.NewRand(3), 0
	n.SetFaultHook(func(_, _ NodeID, _ sim.Time) Fate {
		if rnd.Float64() < 0.5 {
			dropped++
			return FateDrop
		}
		return FateDeliver
	})
	delivered, attempts := 0, 200
	for i := 0; i < attempts; i++ {
		n.SendWire(0, 1, 2000, func(sim.Time) { delivered++ })
	}
	eng.Run()
	// ~8 segments each at 50% loss: essentially none should deliver
	// whole, and definitely none may deliver despite a dropped segment.
	if dropped == 0 {
		t.Fatal("no drops at 50% loss")
	}
	if delivered > attempts/10 {
		t.Fatalf("delivered %d/%d multi-segment messages at 50%% loss", delivered, attempts)
	}
}
