package verbs

import (
	"testing"

	"herdkv/internal/lint/hotalloc/hotgate"
	"herdkv/internal/wire"
)

// TestHotpathAllocFree gates the WRITE/SEND record's stages at 0
// allocs/op: an unsignaled UC WRITE and a UD SEND into a posted RECV,
// each from PostSend through PIO, NIC processing, the order gates, the
// wire and the responder's DMA to the landed bytes or the RECV
// completion. Every annotated stage runs inside both round trips.
func TestHotpathAllocFree(t *testing.T) {
	tb := newTestbed()
	uc, _ := connectedPair(tb, wire.UC)
	udA, udB := tb.a.CreateQP(wire.UD), tb.b.CreateQP(wire.UD)
	mr := tb.b.RegisterMR(256)
	mr.Watch(0, 256, func(int, int) {})
	udB.RecvCQ().SetHandler(func(Completion) {})
	write := SendWR{Verb: WRITE, Data: make([]byte, 40), Remote: mr, RemoteOff: 8, Inline: true}
	send := SendWR{Verb: SEND, Data: make([]byte, 40), Dest: udB}
	roundTrips := func() {
		if err := uc.PostSend(write); err != nil {
			t.Fatal(err)
		}
		if err := udB.PostRecv(mr, 128, 64, 1); err != nil {
			t.Fatal(err)
		}
		if err := udA.PostSend(send); err != nil {
			t.Fatal(err)
		}
		tb.eng.Run()
	}
	hotgate.Check(t, ".", map[string]func(){
		"sendOp.Fire":      roundTrips,
		"QP.pump":          roundTrips,
		"QP.issue":         roundTrips,
		"QP.deliver":       roundTrips,
		"QP.finishInbound": roundTrips,
		"QP.landInbound":   roundTrips,
	})
}
