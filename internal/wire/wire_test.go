package wire

import (
	"testing"
	"testing/quick"

	"herdkv/internal/sim"
)

func newNet() (*sim.Engine, *Network) {
	eng := sim.New()
	n := NewNetwork(eng, InfiniBand56())
	n.AddNode(0)
	n.AddNode(1)
	n.AddNode(2)
	return eng, n
}

func TestTransportStrings(t *testing.T) {
	if RC.String() != "RC" || UC.String() != "UC" || UD.String() != "UD" {
		t.Fatal("transport names wrong")
	}
	if Transport(9).String() != "?" {
		t.Fatal("unknown transport should stringify to ?")
	}
}

func TestUDHeaderLarger(t *testing.T) {
	for _, p := range []Params{InfiniBand56(), RoCE40()} {
		if p.Header(UD) <= p.Header(UC) {
			t.Fatal("UD header must exceed UC header")
		}
		if p.Header(RC) != p.HdrRC {
			t.Fatal("RC header mismatch")
		}
	}
}

func TestSerializationTime(t *testing.T) {
	_, n := newNet()
	// 56 Gbps: 56 bits/ns => 7 bytes/ns. 700 bytes => 100 ns.
	got := n.SerializationTime(700)
	if got != 100*sim.Nanosecond {
		t.Fatalf("700 B at 56 Gbps = %v, want 100ns", got)
	}
}

func TestDeliveryLatency(t *testing.T) {
	eng, n := newNet()
	var at sim.Time = -1
	n.Send(0, 1, UC, 64, func(end sim.Time) { at = end })
	eng.Run()
	wire := 64 + InfiniBand56().HdrUC
	want := 2*n.SerializationTime(wire) + InfiniBand56().PropDelay
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestIngressContention(t *testing.T) {
	// Two senders to the same receiver must serialize on its ingress.
	eng, n := newNet()
	var times []sim.Time
	n.Send(0, 2, UC, 1024, func(end sim.Time) { times = append(times, end) })
	n.Send(1, 2, UC, 1024, func(end sim.Time) { times = append(times, end) })
	eng.Run()
	if len(times) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(times))
	}
	ser := n.SerializationTime(1024 + InfiniBand56().HdrUC)
	if gap := times[1] - times[0]; gap != ser {
		t.Fatalf("ingress gap = %v, want one serialization time %v", gap, ser)
	}
}

func TestEgressIndependentPerNode(t *testing.T) {
	// Different senders do not share egress capacity.
	eng, n := newNet()
	var a, b sim.Time
	n.Send(0, 2, UC, 64, func(end sim.Time) { a = end })
	n.Send(1, 2, UC, 64, func(end sim.Time) { b = end })
	eng.Run()
	ser := n.SerializationTime(64 + InfiniBand56().HdrUC)
	// Both start egress at t=0; the second is delayed only at ingress.
	if a != 2*ser+InfiniBand56().PropDelay {
		t.Fatalf("first delivery %v", a)
	}
	if b != 3*ser+InfiniBand56().PropDelay {
		t.Fatalf("second delivery %v", b)
	}
}

func TestLinkBandwidthBound(t *testing.T) {
	// Saturating one ingress with 128 B+hdr packets: 56 Gbps / (164 B*8)
	// = ~42.7 Mops ceiling.
	eng, n := newNet()
	count := 0
	k := 10000
	for i := 0; i < k; i++ {
		n.Send(0, 1, UC, 128, func(sim.Time) { count++ })
	}
	eng.Run()
	mops := float64(count) / eng.Now().Seconds() / 1e6
	want := 56e9 / 8 / float64(128+36) / 1e6
	if mops < want*0.95 || mops > want*1.05 {
		t.Fatalf("ingress-bound rate %.1f Mops, want ~%.1f", mops, want)
	}
}

func TestZeroLossByDefault(t *testing.T) {
	eng, n := newNet()
	delivered := 0
	for i := 0; i < 1000; i++ {
		n.Send(0, 1, UC, 32, func(sim.Time) { delivered++ })
	}
	eng.Run()
	if delivered != 1000 {
		t.Fatalf("delivered %d of 1000 packets on a lossless fabric", delivered)
	}
}

func TestUnknownNodePanics(t *testing.T) {
	_, n := newNet()
	defer func() {
		if recover() == nil {
			t.Fatal("send to unknown node did not panic")
		}
	}()
	n.Send(0, 99, UC, 1, nil)
}

func TestAddNodeIdempotent(t *testing.T) {
	eng, n := newNet()
	n.Send(0, 1, UC, 512, nil)
	n.AddNode(1) // must not reset port state
	var at sim.Time
	n.Send(0, 1, UC, 512, func(end sim.Time) { at = end })
	eng.Run()
	ser := n.SerializationTime(512 + 36)
	if at != 3*ser+InfiniBand56().PropDelay {
		t.Fatalf("second packet at %v; AddNode reset the port?", at)
	}
}

// Property: delivery time grows monotonically with payload size.
func TestDeliveryMonotoneProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := int(a%4096), int(b%4096)
		if x > y {
			x, y = y, x
		}
		eng := sim.New()
		n := NewNetwork(eng, InfiniBand56())
		n.AddNode(0)
		n.AddNode(1)
		var tx, ty sim.Time
		n.Send(0, 1, UC, x, func(end sim.Time) { tx = end })
		eng.Run()
		eng2 := sim.New()
		n2 := NewNetwork(eng2, InfiniBand56())
		n2.AddNode(0)
		n2.AddNode(1)
		n2.Send(0, 1, UC, y, func(end sim.Time) { ty = end })
		eng2.Run()
		return tx <= ty
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
