package verbs

import (
	"math/rand"
	"testing"
	"testing/quick"

	"herdkv/internal/wire"
)

// TestRandomOpStormProperty throws random mixes of verbs at random QPs
// across three hosts and checks conservation invariants: every WRITE
// lands exactly once, every READ completes with correct bytes, every
// SEND is either received (consuming one RECV) or counted as dropped,
// and the engine quiesces (no stuck events).
func TestRandomOpStormProperty(t *testing.T) {
	f := func(seed int64, opsRaw []uint8) bool {
		if len(opsRaw) > 150 {
			opsRaw = opsRaw[:150]
		}
		rnd := rand.New(rand.NewSource(seed))
		tb := newTestbed()
		tb.net.AddNode(2)
		droppedB := dropCounter(tb.b)

		// A small zoo of QPs.
		ucA, ucB := connectedPair(tb, wire.UC)
		rcA, rcB := connectedPair(tb, wire.RC)
		dcA := tb.a.CreateQP(wire.DC)
		dcB := tb.b.CreateQP(wire.DC)
		udA := tb.a.CreateQP(wire.UD)
		udB := tb.b.CreateQP(wire.UD)

		mrB := tb.b.RegisterMR(1 << 14)
		mrA := tb.a.RegisterMR(1 << 14)
		recvBuf := tb.b.RegisterMR(1 << 14)

		writes, landed := 0, 0
		mrB.Watch(0, 1<<14, func(int, int) { landed++ })

		reads, readsDone := 0, 0
		rcA.SendCQ().SetHandler(func(c Completion) {
			if c.Verb == READ {
				readsDone++
			}
		})

		sends, recvd := 0, 0
		for _, q := range []*QP{ucB, rcB, udB, dcB} {
			q := q
			q.RecvCQ().SetHandler(func(Completion) { recvd++ })
		}
		recvsPosted := 0

		for i, op := range opsRaw {
			switch op % 6 {
			case 0: // UC WRITE
				writes++
				ucA.PostSend(SendWR{Verb: WRITE, Data: []byte{byte(i)},
					Remote: mrB, RemoteOff: rnd.Intn(1 << 10), Inline: op%2 == 0})
			case 1: // RC WRITE signaled
				writes++
				rcA.PostSend(SendWR{Verb: WRITE, Data: make([]byte, int(op)+1),
					Remote: mrB, RemoteOff: rnd.Intn(1 << 10), Signaled: true})
			case 2: // DC WRITE
				writes++
				dcA.PostSend(SendWR{Verb: WRITE, Data: []byte{1, 2, 3}, Dest: dcB,
					Remote: mrB, RemoteOff: rnd.Intn(1 << 10), Inline: true})
			case 3: // RC READ
				reads++
				rcA.PostSend(SendWR{Verb: READ, Remote: mrB, RemoteOff: rnd.Intn(1 << 10),
					Local: mrA, LocalOff: rnd.Intn(1 << 10), Len: rnd.Intn(128) + 1, Signaled: true})
			case 4: // UD SEND, maybe without a RECV
				if op%2 == 0 {
					udB.PostRecv(recvBuf, 0, 1024, 0)
					recvsPosted++
				}
				sends++
				udA.PostSend(SendWR{Verb: SEND, Data: []byte{byte(i)}, Dest: udB, Inline: true})
			case 5: // RC SEND with a RECV
				rcB.PostRecv(recvBuf, 0, 1024, 0)
				recvsPosted++
				sends++
				rcA.PostSend(SendWR{Verb: SEND, Data: []byte{byte(i)}, Inline: true})
			}
		}
		tb.eng.Run()

		if tb.eng.Pending() != 0 {
			return false // engine must quiesce
		}
		if landed != writes {
			return false
		}
		if readsDone != reads {
			return false
		}
		// Every SEND goes to a QP on host b.
		return recvd+int(droppedB.Value()) == sends
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
