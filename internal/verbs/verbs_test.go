package verbs

import (
	"bytes"
	"errors"
	"testing"

	"herdkv/internal/nic"
	"herdkv/internal/pcie"
	"herdkv/internal/sim"
	"herdkv/internal/wire"
)

// testbed wires two hosts on a 56 Gbps fabric.
type testbed struct {
	eng  *sim.Engine
	net  *wire.Network
	a, b *Host
}

func newTestbed() *testbed {
	eng := sim.New()
	net := wire.NewNetwork(eng, wire.InfiniBand56(), 1)
	mk := func(node wire.NodeID) *Host {
		bus := pcie.NewBus(eng, pcie.Gen3x8())
		return NewHost(eng, nic.New(eng, nic.ConnectX3(), bus, net, node))
	}
	return &testbed{eng: eng, net: net, a: mk(0), b: mk(1)}
}

func connectedPair(tb *testbed, t wire.Transport) (*QP, *QP) {
	qa := tb.a.CreateQP(t)
	qb := tb.b.CreateQP(t)
	if err := Connect(qa, qb); err != nil {
		panic(err)
	}
	return qa, qb
}

// collect routes cq's completions into a slice the test reads once the
// engine has run.
func collect(cq *CQ) *[]Completion {
	var got []Completion
	cq.SetHandler(func(c Completion) { got = append(got, c) })
	return &got
}

func TestSupportMatrixTable1(t *testing.T) {
	// Table 1: RC supports everything; UC loses READ; UD loses RDMA.
	cases := []struct {
		tr   wire.Transport
		verb Verb
		want bool
	}{
		{wire.RC, SEND, true}, {wire.RC, RECV, true}, {wire.RC, WRITE, true}, {wire.RC, READ, true},
		{wire.UC, SEND, true}, {wire.UC, RECV, true}, {wire.UC, WRITE, true}, {wire.UC, READ, false},
		{wire.UD, SEND, true}, {wire.UD, RECV, true}, {wire.UD, WRITE, false}, {wire.UD, READ, false},
	}
	for _, c := range cases {
		if got := Supports(c.tr, c.verb); got != c.want {
			t.Errorf("Supports(%v, %v) = %v, want %v", c.tr, c.verb, got, c.want)
		}
	}
}

func TestWriteMovesBytes(t *testing.T) {
	tb := newTestbed()
	qa, _ := connectedPair(tb, wire.UC)
	mr := tb.b.RegisterMR(1024)
	data := []byte("hello, remote memory")
	if err := qa.PostSend(SendWR{Verb: WRITE, Data: data, Remote: mr, RemoteOff: 100, Inline: true}); err != nil {
		t.Fatal(err)
	}
	tb.eng.Run()
	if !bytes.Equal(mr.Bytes()[100:100+len(data)], data) {
		t.Fatalf("remote memory = %q", mr.Bytes()[100:100+len(data)])
	}
}

func TestWriteWatcherFires(t *testing.T) {
	tb := newTestbed()
	qa, _ := connectedPair(tb, wire.UC)
	mr := tb.b.RegisterMR(1024)
	var gotOff, gotN int
	fired := 0
	mr.Watch(0, 512, func(off, n int) { fired++; gotOff, gotN = off, n })
	qa.PostSend(SendWR{Verb: WRITE, Data: make([]byte, 64), Remote: mr, RemoteOff: 128, Inline: true})
	qa.PostSend(SendWR{Verb: WRITE, Data: make([]byte, 64), Remote: mr, RemoteOff: 700, Inline: true}) // outside watch
	tb.eng.Run()
	if fired != 1 || gotOff != 128 || gotN != 64 {
		t.Fatalf("watcher fired=%d off=%d n=%d", fired, gotOff, gotN)
	}
}

// TestWriteConsumesNoRecv pins memory semantics: a WRITE lands without
// taking a posted RECV or raising a recv completion.
func TestWriteConsumesNoRecv(t *testing.T) {
	tb := newTestbed()
	qa, qb := connectedPair(tb, wire.UC)
	mr := tb.b.RegisterMR(64)
	recv := collect(qb.RecvCQ())
	if err := qb.PostRecv(tb.b.RegisterMR(64), 0, 64, 1); err != nil {
		t.Fatal(err)
	}
	if err := qa.PostSend(SendWR{Verb: WRITE, Data: []byte{7}, Remote: mr, Inline: true}); err != nil {
		t.Fatal(err)
	}
	tb.eng.Run()
	if mr.Bytes()[0] != 7 {
		t.Fatal("WRITE did not land")
	}
	if len(*recv) != 0 || qb.RecvQueueLen() != 1 {
		t.Fatal("WRITE consumed a RECV")
	}
}

func TestReadFetchesRemoteBytes(t *testing.T) {
	tb := newTestbed()
	qa, _ := connectedPair(tb, wire.RC)
	remote := tb.b.RegisterMR(256)
	copy(remote.Bytes()[32:], []byte("cuckoo bucket contents"))
	local := tb.a.RegisterMR(256)
	sent := collect(qa.SendCQ())
	err := qa.PostSend(SendWR{Verb: READ, Remote: remote, RemoteOff: 32, Local: local, LocalOff: 0, Len: 22, Signaled: true})
	if err != nil {
		t.Fatal(err)
	}
	tb.eng.Run()
	if got := string(local.Bytes()[:22]); got != "cuckoo bucket contents" {
		t.Fatalf("READ returned %q", got)
	}
	comps := *sent
	if len(comps) != 1 || comps[0].Verb != READ || comps[0].Bytes != 22 {
		t.Fatalf("completions = %+v", comps)
	}
}

func TestSendRecvChannelSemantics(t *testing.T) {
	tb := newTestbed()
	qa, qb := connectedPair(tb, wire.RC)
	buf := tb.b.RegisterMR(1024)
	recv, sent := collect(qb.RecvCQ()), collect(qa.SendCQ())
	if err := qb.PostRecv(buf, 64, 128, 77); err != nil {
		t.Fatal(err)
	}
	msg := []byte("request payload")
	if err := qa.PostSend(SendWR{Verb: SEND, Data: msg, Inline: true, Signaled: true}); err != nil {
		t.Fatal(err)
	}
	tb.eng.Run()
	rc := *recv
	if len(rc) != 1 {
		t.Fatalf("recv completions = %d, want 1", len(rc))
	}
	if rc[0].WRID != 77 || !bytes.Equal(rc[0].Data, msg) {
		t.Fatalf("recv completion = %+v", rc[0])
	}
	if !bytes.Equal(buf.Bytes()[64:64+len(msg)], msg) {
		t.Fatal("payload not written to the posted RECV buffer")
	}
	sc := *sent
	if len(sc) != 1 || sc[0].Verb != SEND {
		t.Fatalf("send completions = %+v", sc)
	}
}

func TestSendWithoutRecvDropped(t *testing.T) {
	tb := newTestbed()
	qa, qb := connectedPair(tb, wire.UC)
	recv := collect(qb.RecvCQ())
	if err := qa.PostSend(SendWR{Verb: SEND, Data: []byte("nobody home"), Inline: true}); err != nil {
		t.Fatal(err)
	}
	tb.eng.Run()
	if qb.DroppedSends() != 1 {
		t.Fatalf("dropped = %d, want 1", qb.DroppedSends())
	}
	if len(*recv) != 0 {
		t.Fatal("unexpected recv completion")
	}
}

func TestUDSendNeedsDest(t *testing.T) {
	tb := newTestbed()
	qp := tb.a.CreateQP(wire.UD)
	err := qp.PostSend(SendWR{Verb: SEND, Data: []byte("x")})
	if !errors.Is(err, ErrNoDestination) {
		t.Fatalf("err = %v, want ErrNoDestination", err)
	}
}

func TestUDOneToMany(t *testing.T) {
	// One UD QP sends to two different receivers — the datagram
	// scalability property (Section 3.3).
	tb := newTestbed()
	src := tb.a.CreateQP(wire.UD)
	r1 := tb.b.CreateQP(wire.UD)
	r2 := tb.b.CreateQP(wire.UD)
	m1, m2 := tb.b.RegisterMR(64), tb.b.RegisterMR(64)
	c1, c2 := collect(r1.RecvCQ()), collect(r2.RecvCQ())
	r1.PostRecv(m1, 0, 64, 1)
	r2.PostRecv(m2, 0, 64, 2)
	src.PostSend(SendWR{Verb: SEND, Data: []byte("to r1"), Dest: r1, Inline: true})
	src.PostSend(SendWR{Verb: SEND, Data: []byte("to r2"), Dest: r2, Inline: true})
	tb.eng.Run()
	if c := *c1; len(c) != 1 || string(c[0].Data) != "to r1" {
		t.Fatalf("r1 completion = %+v", c)
	}
	if c := *c2; len(c) != 1 || string(c[0].Data) != "to r2" {
		t.Fatalf("r2 completion = %+v", c)
	}
}

func TestTransportVerbRejections(t *testing.T) {
	tb := newTestbed()
	quc, _ := connectedPair(tb, wire.UC)
	remote := tb.b.RegisterMR(64)
	local := tb.a.RegisterMR(64)
	if err := quc.PostSend(SendWR{Verb: READ, Remote: remote, Local: local, Len: 8}); !errors.Is(err, ErrVerbNotSupported) {
		t.Fatalf("READ on UC: err = %v", err)
	}
	qud := tb.a.CreateQP(wire.UD)
	dst := tb.b.CreateQP(wire.UD)
	if err := qud.PostSend(SendWR{Verb: WRITE, Data: []byte("x"), Remote: remote, Dest: dst}); !errors.Is(err, ErrVerbNotSupported) {
		t.Fatalf("WRITE on UD: err = %v", err)
	}
	if err := quc.PostSend(SendWR{Verb: RECV}); !errors.Is(err, ErrVerbNotSupported) {
		t.Fatalf("posting RECV via PostSend: err = %v", err)
	}
}

func TestConnectValidation(t *testing.T) {
	tb := newTestbed()
	ud := tb.a.CreateQP(wire.UD)
	uc := tb.b.CreateQP(wire.UC)
	if err := Connect(ud, uc); err == nil {
		t.Fatal("connecting UD QP should fail")
	}
	rc := tb.a.CreateQP(wire.RC)
	if err := Connect(rc, uc); err == nil {
		t.Fatal("connecting mismatched transports should fail")
	}
	if err := uc.PostSend(SendWR{Verb: WRITE, Data: []byte("x"), Remote: tb.a.RegisterMR(8)}); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("unconnected UC WRITE: err = %v", err)
	}
}

func TestInlineLimit(t *testing.T) {
	tb := newTestbed()
	qa, _ := connectedPair(tb, wire.UC)
	mr := tb.b.RegisterMR(1024)
	big := make([]byte, 257)
	err := qa.PostSend(SendWR{Verb: WRITE, Data: big, Remote: mr, Inline: true})
	if !errors.Is(err, ErrInlineTooLarge) {
		t.Fatalf("inline 257 B: err = %v", err)
	}
	if err := qa.PostSend(SendWR{Verb: WRITE, Data: big, Remote: mr}); err != nil {
		t.Fatalf("non-inline 257 B should be fine: %v", err)
	}
}

func TestBoundsChecks(t *testing.T) {
	tb := newTestbed()
	qa, qb := connectedPair(tb, wire.RC)
	mr := tb.b.RegisterMR(64)
	local := tb.a.RegisterMR(64)
	if err := qa.PostSend(SendWR{Verb: WRITE, Data: make([]byte, 65), Remote: mr}); !errors.Is(err, ErrBounds) {
		t.Fatalf("oversized WRITE: %v", err)
	}
	if err := qa.PostSend(SendWR{Verb: READ, Remote: mr, RemoteOff: 60, Len: 8, Local: local}); !errors.Is(err, ErrBounds) {
		t.Fatalf("out-of-range READ: %v", err)
	}
	if err := qb.PostRecv(mr, 60, 8, 0); !errors.Is(err, ErrBounds) {
		t.Fatalf("out-of-range RECV: %v", err)
	}
}

func TestUnsignaledProducesNoCompletion(t *testing.T) {
	tb := newTestbed()
	qa, _ := connectedPair(tb, wire.UC)
	mr := tb.b.RegisterMR(64)
	sent := collect(qa.SendCQ())
	qa.PostSend(SendWR{Verb: WRITE, Data: []byte("quiet"), Remote: mr, Inline: true})
	tb.eng.Run()
	if len(*sent) != 0 {
		t.Fatal("unsignaled WRITE produced a completion")
	}
}

func TestRCSignaledCompletesAfterAck(t *testing.T) {
	// RC completion requires the ACK round trip: a signaled RC WRITE must
	// complete later than one full one-way delivery.
	tb := newTestbed()
	qa, _ := connectedPair(tb, wire.RC)
	mr := tb.b.RegisterMR(64)
	var done sim.Time
	qa.SendCQ().SetHandler(func(c Completion) { done = c.At })
	qa.PostSend(SendWR{Verb: WRITE, Data: []byte("x"), Remote: mr, Inline: true, Signaled: true})
	tb.eng.Run()
	if done == 0 {
		t.Fatal("no completion")
	}
	if done < sim.Microsecond {
		t.Fatalf("RC completion at %v ns — too fast to include an ACK round trip", done.Nanoseconds())
	}
}

func TestUCSignaledCompletesLocally(t *testing.T) {
	// Unreliable WRITE completes when it hits the wire: far sooner than
	// an RC round trip.
	tb := newTestbed()
	qa, _ := connectedPair(tb, wire.UC)
	mr := tb.b.RegisterMR(64)
	var done sim.Time
	qa.SendCQ().SetHandler(func(c Completion) { done = c.At })
	qa.PostSend(SendWR{Verb: WRITE, Data: []byte("x"), Remote: mr, Inline: true, Signaled: true})
	tb.eng.Run()
	if done == 0 || done > sim.Microsecond {
		t.Fatalf("UC completion at %v ns, want < 1000", done.Nanoseconds())
	}
}

func TestWriteOrderingPerQP(t *testing.T) {
	// UC WRITEs on one QP must land in post order even when an earlier
	// WRITE is non-inlined (slower fetch path).
	tb := newTestbed()
	qa, _ := connectedPair(tb, wire.UC)
	mr := tb.b.RegisterMR(64)
	var order []byte
	mr.Watch(0, 64, func(off, n int) { order = append(order, mr.Bytes()[off]) })
	qa.PostSend(SendWR{Verb: WRITE, Data: []byte{1}, Remote: mr, RemoteOff: 0}) // non-inline
	qa.PostSend(SendWR{Verb: WRITE, Data: []byte{2}, Remote: mr, RemoteOff: 1, Inline: true})
	qa.PostSend(SendWR{Verb: WRITE, Data: []byte{3}, Remote: mr, RemoteOff: 2, Inline: true})
	tb.eng.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("delivery order = %v, want [1 2 3]", order)
	}
}

func TestReadWindowStalls(t *testing.T) {
	// Post 2x the READ window; all must eventually complete, and the
	// elapsed time must cover at least two round trips (the second batch
	// can only start after the first drains).
	tb := newTestbed()
	qa, _ := connectedPair(tb, wire.RC)
	remote := tb.b.RegisterMR(4096)
	local := tb.a.RegisterMR(4096)
	window := tb.a.NIC().Params().ReadWindow
	n := 2 * window
	got := 0
	qa.SendCQ().SetHandler(func(c Completion) { got++ })
	for i := 0; i < n; i++ {
		err := qa.PostSend(SendWR{Verb: READ, Remote: remote, RemoteOff: i * 64, Local: local, LocalOff: i * 64, Len: 64, Signaled: true})
		if err != nil {
			t.Fatal(err)
		}
	}
	tb.eng.Run()
	if got != n {
		t.Fatalf("completions = %d, want %d", got, n)
	}
	if tb.eng.Now() < 2*sim.Microsecond {
		t.Fatalf("finished at %v — window did not throttle", tb.eng.Now())
	}
}

func TestRecvFIFOOrder(t *testing.T) {
	tb := newTestbed()
	qa, qb := connectedPair(tb, wire.RC)
	mr := tb.b.RegisterMR(1024)
	recv := collect(qb.RecvCQ())
	for i := 0; i < 4; i++ {
		qb.PostRecv(mr, i*16, 16, uint64(i))
	}
	for i := 0; i < 4; i++ {
		qa.PostSend(SendWR{Verb: SEND, Data: []byte{byte(i)}, Inline: true})
	}
	tb.eng.Run()
	comps := *recv
	if len(comps) != 4 {
		t.Fatalf("completions = %d, want 4", len(comps))
	}
	for i, c := range comps {
		if c.WRID != uint64(i) || c.Data[0] != byte(i) {
			t.Fatalf("completion %d = %+v (FIFO violated)", i, c)
		}
	}
}

func TestWriteLatencyBelowReadLatency(t *testing.T) {
	// Figure 2: one-way unsignaled WRITE latency is roughly half of READ
	// latency; a signaled inline RC WRITE is close to READ.
	tbW := newTestbed()
	qw, _ := connectedPair(tbW, wire.UC)
	mrW := tbW.b.RegisterMR(64)
	var writeLanded sim.Time
	mrW.Watch(0, 64, func(int, int) { writeLanded = tbW.eng.Now() })
	qw.PostSend(SendWR{Verb: WRITE, Data: make([]byte, 32), Remote: mrW, Inline: true})
	tbW.eng.Run()

	tbR := newTestbed()
	qr, _ := connectedPair(tbR, wire.RC)
	remote := tbR.b.RegisterMR(64)
	local := tbR.a.RegisterMR(64)
	var readDone sim.Time
	qr.SendCQ().SetHandler(func(c Completion) { readDone = c.At })
	qr.PostSend(SendWR{Verb: READ, Remote: remote, Local: local, Len: 32, Signaled: true})
	tbR.eng.Run()

	if writeLanded == 0 || readDone == 0 {
		t.Fatal("operations did not complete")
	}
	ratio := float64(writeLanded) / float64(readDone)
	if ratio > 0.7 {
		t.Fatalf("one-way WRITE %.0f ns vs READ %.0f ns (ratio %.2f): WRITE should be ~half",
			writeLanded.Nanoseconds(), readDone.Nanoseconds(), ratio)
	}
	if readDone < sim.Microsecond || readDone > 4*sim.Microsecond {
		t.Fatalf("READ latency %.0f ns outside the paper's 1-4 us band", readDone.Nanoseconds())
	}
}

func TestSendTruncatesToRecvBuffer(t *testing.T) {
	tb := newTestbed()
	qa, qb := connectedPair(tb, wire.UC)
	mr := tb.b.RegisterMR(64)
	recv := collect(qb.RecvCQ())
	qb.PostRecv(mr, 0, 4, 0)
	qa.PostSend(SendWR{Verb: SEND, Data: []byte("longer than four"), Inline: true})
	tb.eng.Run()
	comps := *recv
	if len(comps) != 1 || comps[0].Bytes != 4 || string(comps[0].Data) != "long" {
		t.Fatalf("truncated completion = %+v", comps)
	}
}

func TestPostSendCopiesData(t *testing.T) {
	tb := newTestbed()
	qa, _ := connectedPair(tb, wire.UC)
	mr := tb.b.RegisterMR(64)
	data := []byte("original")
	qa.PostSend(SendWR{Verb: WRITE, Data: data, Remote: mr, Inline: true})
	copy(data, "CLOBBER!")
	tb.eng.Run()
	if got := string(mr.Bytes()[:8]); got != "original" {
		t.Fatalf("remote = %q; PostSend must copy the payload", got)
	}
}

// A CQ hands completions to its handler in push order, and one with
// no handler discards them.
func TestCQHandlerDelivery(t *testing.T) {
	cq := NewCQ()
	cq.push(Completion{WRID: 99})
	got := collect(cq)
	for i := 0; i < 5; i++ {
		cq.push(Completion{WRID: uint64(i)})
	}
	if len(*got) != 5 {
		t.Fatalf("handler saw %d completions, want 5", len(*got))
	}
	for i, c := range *got {
		if c.WRID != uint64(i) {
			t.Fatalf("completions = %+v, want WRIDs 0..4 in push order", *got)
		}
	}
}

func TestVerbStrings(t *testing.T) {
	if WRITE.String() != "WRITE" || READ.String() != "READ" || SEND.String() != "SEND" || RECV.String() != "RECV" {
		t.Fatal("verb names wrong")
	}
	if Verb(42).String() != "?" {
		t.Fatal("unknown verb should stringify to ?")
	}
}
