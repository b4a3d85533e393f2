// Package vmfix is the verbsmatrix fixture: Table 1 violations with
// constant transport and opcode, provably oversized inline posts, and
// unsignaled posting loops.
package vmfix

import (
	"verbs"
	"wire"
)

func table1(h *verbs.Host) {
	ud := h.CreateQP(wire.UD)
	uc := h.CreateQP(wire.UC)
	rc := h.CreateQP(wire.RC)

	_ = ud.PostSend(verbs.SendWR{Verb: verbs.READ}) // want `READ posted on a UD queue pair`
	_ = ud.PostSend(verbs.SendWR{WRID: 1})          // want `WRITE posted on a UD queue pair`
	_ = uc.PostSend(verbs.SendWR{Verb: verbs.READ}) // want `READ posted on a UC queue pair`

	// Supported pairings: no diagnostics.
	_ = uc.PostSend(verbs.SendWR{Verb: verbs.WRITE})
	_ = rc.PostSend(verbs.SendWR{Verb: verbs.READ})
	_ = ud.PostSend(verbs.SendWR{Verb: verbs.SEND})
}

func viaLocal(h *verbs.Host) {
	ud := h.CreateQP(wire.UD)
	// The diagnostic lands on the literal's Verb field, resolved
	// through the single-assignment local.
	wr := verbs.SendWR{Verb: verbs.READ} // want `READ posted on a UD queue pair`
	_ = ud.PostSend(wr)

	// Reassignment poisons the tracked literal: no diagnostic.
	wr2 := verbs.SendWR{Verb: verbs.READ}
	wr2 = verbs.SendWR{Verb: verbs.SEND}
	_ = ud.PostSend(wr2)
}

func batch(h *verbs.Host) {
	ud := h.CreateQP(wire.UD)
	_ = ud.PostSendBatch([]verbs.SendWR{
		{Verb: verbs.SEND},
		{Verb: verbs.WRITE}, // want `WRITE posted on a UD queue pair`
	})
}

func inline(h *verbs.Host) {
	rc := h.CreateQP(wire.RC)
	_ = rc.PostSend(verbs.SendWR{
		Verb:   verbs.WRITE,
		Data:   make([]byte, 512),
		Inline: true, // want `512-byte payload exceeds the device inline limit`
	})
	// 64 B fits under the 256 B limit: no diagnostic.
	_ = rc.PostSend(verbs.SendWR{Verb: verbs.WRITE, Data: make([]byte, 64), Inline: true})
}

func loops(rc *verbs.QP) {
	for i := 0; i < 1024; i++ {
		_ = rc.PostSend(verbs.SendWR{Verb: verbs.WRITE, Signaled: false}) // want `loop posts only unsignaled sends`
	}
	// Periodic signaling (selective signaling, §3.2): no diagnostic —
	// Signaled is not constant-false.
	for i := 0; i < 1024; i++ {
		_ = rc.PostSend(verbs.SendWR{Verb: verbs.WRITE, Signaled: i%64 == 0})
	}
	// Consuming completions in the loop bounds outstanding posts: no
	// diagnostic.
	for i := 0; i < 1024; i++ {
		_ = rc.PostSend(verbs.SendWR{Verb: verbs.WRITE})
		rc.SendCQ().SetHandler(func(verbs.Completion) {})
	}
}

func allowed(h *verbs.Host) {
	ud := h.CreateQP(wire.UD)
	// A fault injector may post an unsupported verb on purpose to
	// exercise the runtime rejection path.
	_ = ud.PostSend(verbs.SendWR{Verb: verbs.READ}) //lint:allow verbsmatrix — fixture demonstrates the escape hatch
}
