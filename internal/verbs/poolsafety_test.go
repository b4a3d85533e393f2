package verbs

import (
	"bytes"
	"encoding/binary"
	"testing"

	"herdkv/internal/nic"
	"herdkv/internal/pcie"
	"herdkv/internal/sim"
	"herdkv/internal/wire"
)

// poolPayload is the 48 bytes the i-th verb of the pool-safety test
// posts: its index, then a fill that is nonzero in the trailing 16 bytes
// (so only a corrupt delivery zeroes them).
func poolPayload(i int) []byte {
	b := make([]byte, 48)
	for j := range b {
		b[j] = byte(i*7 + j + 1)
	}
	b[len(b)-1] |= 1
	binary.LittleEndian.PutUint32(b, uint32(i))
	return b
}

// alternatingFaults is a fault hook that delivers, drops, delivers and
// corrupts packets in turn, tallying its verdicts per sending node.
type alternatingFaults struct {
	n        int
	verdicts map[wire.NodeID]*[3]int // indexed by wire.Fate
}

func (f *alternatingFaults) fate(src, dst wire.NodeID, now sim.Time) wire.Fate {
	f.n++
	fate := wire.FateDeliver
	switch f.n % 4 {
	case 1:
		fate = wire.FateDrop
	case 3:
		fate = wire.FateCorrupt
	}
	if f.verdicts[src] == nil {
		f.verdicts[src] = &[3]int{}
	}
	f.verdicts[src][fate]++
	return fate
}

// landingCheck validates arrived bytes against the payload they claim
// to be, intact or damaged, and counts each verb's arrival once.
type landingCheck struct {
	t                *testing.T
	seen             map[int]bool
	intact, rejected int
}

// check decodes which verb got carries; a corrupt arrival is the one the
// application rejects by its zeroed trailing 16 bytes. It returns the
// verb's index.
func (c *landingCheck) check(what string, got []byte) int {
	c.t.Helper()
	corrupt := bytes.Equal(got[len(got)-16:], make([]byte, 16))
	i := int(binary.LittleEndian.Uint32(got))
	if corrupt {
		i = int(binary.LittleEndian.Uint32(got) ^ 0x5a5a5a5a)
	}
	if i < 0 || i >= 1<<16 {
		c.t.Fatalf("%s: arrival carries no posted verb's bytes: %x", what, got)
	}
	want := poolPayload(i)
	if corrupt {
		want = damage(want, true)
		c.rejected++
	} else {
		c.intact++
	}
	if !bytes.Equal(got, want) {
		c.t.Fatalf("%s %d: landed %x, want %x", what, i, got, want)
	}
	if c.seen[i] {
		c.t.Fatalf("%s %d arrived twice", what, i)
	}
	c.seen[i] = true
	return i
}

// TestRecordPoolSafetyUnderFaults drives UC WRITEs and UD SENDs through
// a fabric that drops and corrupts alternate packets, errors a requester
// and a responder mid-run, and keeps posting on fresh QPs. Verb records
// are pooled: one recycled while a dropped packet, an errored QP or the
// responder still referenced it would land another verb's bytes, land a
// verb twice, or lose a completion. So every arrival must be exactly its
// posted bytes (or their damaged form, which the application rejects),
// and every verb and RECV must be accounted for.
func TestRecordPoolSafetyUnderFaults(t *testing.T) {
	tb := newTestbed()
	bus := pcie.NewBus(tb.eng, pcie.Gen3x8())
	c := NewHost(tb.eng, nic.New(tb.eng, nic.ConnectX3(), bus, tb.net, 2))
	faults := &alternatingFaults{verdicts: map[wire.NodeID]*[3]int{}}
	tb.net.SetFaultHook(faults.fate)

	const perPhase = 200
	writes := &landingCheck{t: t, seen: map[int]bool{}}
	sends := &landingCheck{t: t, seen: map[int]bool{}}
	target := tb.b.RegisterMR(2 * perPhase * 64)
	target.Watch(0, target.Len(), func(off, n int) {
		if i := writes.check("WRITE", target.Bytes()[off:off+n]); off != i*64 {
			t.Fatalf("WRITE %d landed at offset %d, want %d", i, off, i*64)
		}
	})
	recvMR := tb.b.RegisterMR(2 * perPhase * 64)

	// Requesters: ucA on host a (node 0) and udA on host c (node 2), so
	// the hook's per-node tallies split WRITE and SEND packets.
	ucA, ucB := connectedPair(tb, wire.UC)
	udA := c.CreateQP(wire.UD)
	var ucFlushed, recvFlushed, recvDone int
	ucA.SendCQ().SetHandler(func(cq Completion) {
		if !cq.Flushed {
			t.Fatalf("unsignaled WRITE %d completed without a flush", cq.WRID)
		}
		ucFlushed++
	})
	recvHandler := func(cq Completion) {
		if cq.Flushed {
			recvFlushed++
			return
		}
		recvDone++
		sends.check("SEND", cq.Data)
	}
	udB := tb.b.CreateQP(wire.UD)
	udB.RecvCQ().SetHandler(recvHandler)

	wrN, sendN, recvN := 0, 0, 0
	post := func(uc, ud *QP) {
		for k := 0; k < 4; k++ {
			if err := uc.PostSend(SendWR{Verb: WRITE, WRID: uint64(wrN), Data: poolPayload(wrN),
				Remote: target, RemoteOff: wrN * 64, Inline: true}); err != nil {
				t.Fatal(err)
			}
			wrN++
			if err := ud.PostRecv(recvMR, recvN*64, 64, uint64(recvN)); err != nil {
				t.Fatal(err)
			}
			recvN++
			if err := udA.PostSend(SendWR{Verb: SEND, Data: poolPayload(1<<15 + sendN), Dest: ud}); err != nil {
				t.Fatal(err)
			}
			sendN++
		}
	}

	// Phase 1: load both pairs, then error the WRITE requester and the
	// SEND responder while verbs are queued, on the wire and mid-DMA.
	for wrN < perPhase {
		post(ucA, udB)
		tb.eng.RunFor(100 * sim.Nanosecond)
	}
	ucA.SetError()
	udB.SetError()
	udRecvsPhase1 := recvN

	// Phase 2: fresh QPs draw records from the same pools while the
	// abandoned ones may still be pending.
	ucA2, ucB2 := connectedPair(tb, wire.UC)
	udB2 := tb.b.CreateQP(wire.UD)
	udB2.RecvCQ().SetHandler(recvHandler)
	for wrN < 2*perPhase {
		post(ucA2, udB2)
		tb.eng.RunFor(100 * sim.Nanosecond)
	}
	tb.eng.Run()

	if ucFlushed == 0 || recvFlushed == 0 {
		t.Fatalf("SetError flushed %d WRITEs and %d RECVs; the test must catch work in flight", ucFlushed, recvFlushed)
	}
	if ucB.DroppedSends()+ucB2.DroppedSends() != 0 {
		t.Fatal("a live WRITE responder dropped a WRITE")
	}
	// WRITEs: every verb was flushed or sent one packet, and every packet
	// the fabric did not drop landed once, intact or rejected.
	w := faults.verdicts[0]
	if got := ucFlushed + w[wire.FateDeliver] + w[wire.FateDrop] + w[wire.FateCorrupt]; got != wrN {
		t.Fatalf("WRITEs: %d flushed + %v verdicts = %d, want %d posted", ucFlushed, *w, got, wrN)
	}
	if writes.intact != w[wire.FateDeliver] || writes.rejected != w[wire.FateCorrupt] {
		t.Fatalf("WRITEs landed %d intact and %d rejected, fabric delivered %d and corrupted %d",
			writes.intact, writes.rejected, w[wire.FateDeliver], w[wire.FateCorrupt])
	}
	// SENDs: every one went on the wire; every packet the fabric did not
	// drop either completed a RECV or was dropped by an errored or
	// RECV-less responder.
	s := faults.verdicts[2]
	if s[wire.FateDeliver]+s[wire.FateDrop]+s[wire.FateCorrupt] != sendN {
		t.Fatalf("SENDs: verdicts %v, want %d packets", *s, sendN)
	}
	if dropped := int(udB.DroppedSends() + udB2.DroppedSends()); recvDone+dropped != s[wire.FateDeliver]+s[wire.FateCorrupt] {
		t.Fatalf("SENDs: %d completed + %d dropped, fabric passed %d", recvDone, dropped, s[wire.FateDeliver]+s[wire.FateCorrupt])
	}
	if recvDone != sends.intact+sends.rejected || sends.rejected == 0 || writes.rejected == 0 {
		t.Fatalf("SENDs: %d completions, %d intact, %d rejected; WRITEs rejected %d",
			recvDone, sends.intact, sends.rejected, writes.rejected)
	}
	// RECVs: each was consumed, flushed, or is still posted.
	if got := recvDone + recvFlushed + udB2.RecvQueueLen(); got != recvN {
		t.Fatalf("RECVs: %d consumed + %d flushed + %d posted = %d, want %d",
			recvDone, recvFlushed, udB2.RecvQueueLen(), got, recvN)
	}
	if recvFlushed > udRecvsPhase1 {
		t.Fatalf("flushed %d RECVs, only %d were posted before the error", recvFlushed, udRecvsPhase1)
	}
}
