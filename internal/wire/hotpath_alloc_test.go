package wire

import (
	"testing"

	"herdkv/internal/lint/hotalloc/hotgate"
	"herdkv/internal/sim"
)

// TestHotpathAllocFree gates a packet's trip at 0 allocs/op: egress
// serialization, propagation and ingress serialization through to the
// data-path and control-path delivery callbacks. Packet records come
// from the network's pool, warmed by the first run.
func TestHotpathAllocFree(t *testing.T) {
	eng, n := newNet()
	data := func(Delivery) {}
	ctrl := func(sim.Time) {}
	hotgate.Check(t, ".", map[string]func(){
		"Network.sendOne": func() { n.SendData(0, 1, UC, 64, data); eng.Run() },
		"packet.Fire":     func() { n.SendWire(1, 2, 30, ctrl); n.Send(2, 0, UD, 32, nil); eng.Run() },
	})
}

// BenchmarkSendData measures one small UC packet from send to delivery.
func BenchmarkSendData(b *testing.B) {
	eng, n := newNet()
	deliver := func(Delivery) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.SendData(0, 1, UC, 64, deliver)
		eng.Run()
	}
}
