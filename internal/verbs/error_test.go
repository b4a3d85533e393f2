package verbs

import (
	"errors"
	"testing"

	"herdkv/internal/wire"
)

func TestSetErrorFlushesAndRefusesWork(t *testing.T) {
	tb := newTestbed()
	qa, qb := connectedPair(tb, wire.RC)

	var sendComps, recvComps []Completion
	qa.SendCQ().SetHandler(func(c Completion) { sendComps = append(sendComps, c) })
	qb.RecvCQ().SetHandler(func(c Completion) { recvComps = append(recvComps, c) })

	mr := tb.b.RegisterMR(4096)
	if err := qb.PostRecv(mr, 0, 1024, 1); err != nil {
		t.Fatal(err)
	}
	if err := qb.PostRecv(mr, 1024, 1024, 2); err != nil {
		t.Fatal(err)
	}
	if err := qa.PostSend(SendWR{Verb: SEND, Data: []byte("x"), Dest: qb, Signaled: true}); err != nil {
		t.Fatal(err)
	}

	// Error both sides before the engine moves: everything posted must
	// flush in error rather than vanish.
	qa.SetError()
	qb.SetError()
	tb.eng.Run()

	if !qa.Errored() || !qb.Errored() {
		t.Fatal("queue pairs not marked errored")
	}
	if len(sendComps) != 1 || !sendComps[0].Flushed {
		t.Fatalf("send flush completions = %+v, want one flushed", sendComps)
	}
	if len(recvComps) != 2 || !recvComps[0].Flushed || !recvComps[1].Flushed {
		t.Fatalf("recv flush completions = %+v, want two flushed", recvComps)
	}

	// New work on an errored QP is refused.
	if err := qa.PostSend(SendWR{Verb: SEND, Data: []byte("y"), Dest: qb}); !errors.Is(err, ErrQPState) {
		t.Fatalf("PostSend on errored QP: %v, want ErrQPState", err)
	}
	if err := qb.PostRecv(mr, 0, 1024, 3); !errors.Is(err, ErrQPState) {
		t.Fatalf("PostRecv on errored QP: %v, want ErrQPState", err)
	}
}

func TestInboundToErroredQPIsDropped(t *testing.T) {
	tb := newTestbed()
	qa, qb := connectedPair(tb, wire.UC)
	mr := tb.b.RegisterMR(1024)

	qb.SetError()
	if err := qa.PostSend(SendWR{Verb: WRITE, Data: []byte("ghost"), Remote: mr, RemoteOff: 0, Inline: true}); err != nil {
		t.Fatal(err)
	}
	tb.eng.Run()

	for _, b := range mr.Bytes()[:5] {
		if b != 0 {
			t.Fatalf("WRITE landed in memory behind an errored QP: %q", mr.Bytes()[:5])
		}
	}
}
