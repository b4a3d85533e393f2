package verbs

import (
	"bytes"
	"errors"
	"testing"

	"herdkv/internal/sim"
	"herdkv/internal/wire"
)

func TestDCSupportsAllVerbs(t *testing.T) {
	for _, v := range []Verb{SEND, RECV, WRITE, READ} {
		if !Supports(wire.DC, v) {
			t.Errorf("DC should support %v", v)
		}
	}
}

func TestDCCannotConnect(t *testing.T) {
	tb := newTestbed()
	a := tb.a.CreateQP(wire.DC)
	b := tb.b.CreateQP(wire.DC)
	if err := Connect(a, b); !errors.Is(err, ErrVerbNotSupported) {
		t.Fatalf("connecting DC QPs: %v", err)
	}
}

func TestDCWriteNeedsDest(t *testing.T) {
	tb := newTestbed()
	qp := tb.a.CreateQP(wire.DC)
	mr := tb.b.RegisterMR(64)
	err := qp.PostSend(SendWR{Verb: WRITE, Data: []byte("x"), Remote: mr})
	if !errors.Is(err, ErrNoDestination) {
		t.Fatalf("err = %v, want ErrNoDestination", err)
	}
}

func TestDCWriteMovesBytes(t *testing.T) {
	tb := newTestbed()
	src := tb.a.CreateQP(wire.DC)
	dst := tb.b.CreateQP(wire.DC)
	mr := tb.b.RegisterMR(128)
	err := src.PostSend(SendWR{
		Verb: WRITE, Data: []byte("dynamically connected"),
		Dest: dst, Remote: mr, RemoteOff: 8, Inline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tb.eng.Run()
	if !bytes.Equal(mr.Bytes()[8:8+21], []byte("dynamically connected")) {
		t.Fatalf("remote = %q", mr.Bytes()[8:29])
	}
}

func TestDCReadFetchesBytes(t *testing.T) {
	tb := newTestbed()
	src := tb.a.CreateQP(wire.DC)
	dst := tb.b.CreateQP(wire.DC)
	remote := tb.b.RegisterMR(64)
	copy(remote.Bytes(), []byte("dc read data"))
	local := tb.a.RegisterMR(64)
	err := src.PostSend(SendWR{
		Verb: READ, Dest: dst, Remote: remote, Local: local, Len: 12, Signaled: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tb.eng.Run()
	if string(local.Bytes()[:12]) != "dc read data" {
		t.Fatalf("READ over DC = %q", local.Bytes()[:12])
	}
}

func TestDCReliableCompletion(t *testing.T) {
	// DC is a reliable transport: a signaled WRITE completes only after
	// the ACK round trip, like RC.
	tb := newTestbed()
	src := tb.a.CreateQP(wire.DC)
	dst := tb.b.CreateQP(wire.DC)
	mr := tb.b.RegisterMR(64)
	var done sim.Time
	src.SendCQ().SetHandler(func(c Completion) { done = c.At })
	src.PostSend(SendWR{Verb: WRITE, Data: []byte("x"), Dest: dst, Remote: mr, Inline: true, Signaled: true})
	tb.eng.Run()
	if done < sim.Microsecond {
		t.Fatalf("DC completion at %v ns — missing the ACK round trip", done.Nanoseconds())
	}
}

func TestDCSharedResponderContext(t *testing.T) {
	// Many DC initiators hitting one host must share a single responder
	// context: the receive cache sees one entry, so hit rate stays high
	// regardless of peer count (unlike UC, Figure 12's limiter).
	tb := newTestbed()
	// Enough distinct sources to overwhelm a per-QP cache if one were
	// (wrongly) used. All target host B.
	targets := tb.b.CreateQP(wire.DC)
	mr := tb.b.RegisterMR(1 << 16)
	nSrc := 600
	done := 0
	for i := 0; i < nSrc; i++ {
		src := tb.a.CreateQP(wire.DC)
		src.PostSend(SendWR{
			Verb: WRITE, Data: []byte{byte(i)}, Dest: targets,
			Remote: mr, RemoteOff: i, Inline: true,
		})
		done++
	}
	tb.eng.Run()
	if hr := tb.b.NIC().RecvCtxHitRate(); hr < 0.99 {
		t.Fatalf("DC responder hit rate = %.3f, want ~1 (shared context)", hr)
	}
	for i := 0; i < nSrc; i++ {
		if mr.Bytes()[i] != byte(i) {
			t.Fatalf("write %d lost", i)
		}
	}
}
