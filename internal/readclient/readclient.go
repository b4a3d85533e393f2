// Package readclient is the client core that the READ-based baselines
// share: Pilaf-em-OPT (internal/pilaf) and FaRM-em (internal/farm). The
// paper builds both with HERD's own optimizations (Section 5.1), so
// what the comparison leaves them to differ in is their table READs and
// their PUT transports. Everything else is this Core: the window gate,
// the RC QP whose READ completions are matched FIFO to continuations,
// the rotating landing slots those READs land in, the queue of PUTs
// awaiting their acks, and GET completion.
package readclient

import (
	"herdkv/internal/cluster"
	"herdkv/internal/fifo"
	"herdkv/internal/kv"
	"herdkv/internal/sim"
	"herdkv/internal/verbs"
	"herdkv/internal/wire"
)

// Core is the shared half of one baseline client. A client embeds it
// and calls Connect before its first operation.
type Core struct {
	machine *cluster.Machine
	window  int

	rcQP      *verbs.QP // READs (RC only — Table 1)
	scratch   *verbs.MR // READ landing buffer: Window+1 slots
	slotBytes int
	readSeq   int

	// reads holds one-shot continuations matched FIFO to READ
	// completions on rcQP. READs on one QP complete in order, and each
	// GET issues its READs one after another, so FIFO matching is exact.
	reads fifo.Queue[func()]

	// Window management: at most window ops outstanding (PUTs must not
	// outrun the server's pre-posted RECVs or request slots).
	inflight int
	waiting  fifo.Queue[func()]

	// puts holds PUTs awaiting their acks, oldest first: each client's
	// PUT transport preserves order end to end.
	puts fifo.Queue[pendingPut]

	// vals backs GET-hit values: each is cut from a shared block and
	// handed to one callback (kv.Slab), so a hit allocates nothing.
	vals kv.Slab
}

type pendingPut struct {
	key      kv.Key
	issuedAt sim.Time
	cb       func(kv.Result)
}

// Connect sets c up on client machine m against server machine srv: an
// RC QP pair for READs, a window-op limit, and a landing buffer of
// window+1 slots of slotBytes each. The one spare slot means a READ
// never lands in a slot that an earlier, still outstanding READ owns:
// each of the at most window ops in flight has one READ outstanding.
func (c *Core) Connect(m, srv *cluster.Machine, window, slotBytes int) error {
	c.machine, c.window, c.slotBytes = m, window, slotBytes
	c.rcQP = m.Verbs.CreateQP(wire.RC)
	if err := verbs.Connect(c.rcQP, srv.Verbs.CreateQP(wire.RC)); err != nil {
		return err
	}
	c.rcQP.SendCQ().SetHandler(func(verbs.Completion) {
		if c.reads.Len() > 0 {
			c.reads.Pop()()
		}
	})
	c.scratch = m.Verbs.RegisterMR((window + 1) * slotBytes)
	return nil
}

// now returns the shared sim clock's current instant.
func (c *Core) now() sim.Time { return c.machine.Verbs.NIC().Engine().Now() }

// Inline reports whether an n-byte payload fits inline in a work
// request on the client's NIC.
func (c *Core) Inline(n int) bool { return n <= c.machine.Verbs.NIC().Params().InlineMax }

// Inflight returns the number of operations holding a window slot.
func (c *Core) Inflight() int { return c.inflight }

// startOp gates an operation on the client window; fn runs when a slot
// is free.
func (c *Core) startOp(fn func()) {
	if c.inflight >= c.window {
		c.waiting.Push(fn)
		return
	}
	c.inflight++
	fn()
}

// finishOp releases a window slot and starts the next queued op.
func (c *Core) finishOp() {
	c.inflight--
	if c.waiting.Len() > 0 && c.inflight < c.window {
		c.inflight++
		c.waiting.Pop()()
	}
}

// Put gates a PUT of key on the window. Once a slot is free, the PUT
// joins the ack queue and post sends it over the client's own PUT
// transport; cb runs when Ack completes it.
func (c *Core) Put(key kv.Key, cb func(kv.Result), post func()) {
	c.startOp(func() {
		c.puts.Push(pendingPut{key: key, issuedAt: c.now(), cb: cb})
		post()
	})
}

// Ack completes the oldest PUT awaiting its ack: ok reports whether the
// server applied it. An ack with no PUT outstanding is ignored.
func (c *Core) Ack(ok bool) {
	if c.puts.Len() == 0 {
		return
	}
	op := c.puts.Pop()
	c.finishOp()
	if op.cb != nil {
		op.cb(kv.Result{Key: op.key, Status: StatusOf(ok), Latency: c.now() - op.issuedAt})
	}
}

// StatusOf maps a served outcome onto the unified vocabulary: found or
// applied is a hit, anything else a miss.
func StatusOf(ok bool) kv.Status {
	if ok {
		return kv.StatusHit
	}
	return kv.StatusMiss
}

// Get gates a GET of key on the window. Once a slot is free, read
// starts the GET's table READs; cb gets the result when the GET
// finishes.
func (c *Core) Get(key kv.Key, cb func(kv.Result), read func(g *Get)) error {
	if key.IsZero() {
		return kv.ErrZeroKey
	}
	c.startOp(func() {
		read(&Get{c: c, res: kv.Result{Key: key, IsGet: true}, start: c.now(), cb: cb})
	})
	return nil
}

// Get is one GET in flight on a Core. Its latency runs from the moment
// it got a window slot.
type Get struct {
	c     *Core
	res   kv.Result
	start sim.Time
	cb    func(kv.Result)
}

// Read posts a signaled READ of n bytes at off in mr into the next
// landing slot, and counts it in the GET's Result.Reads. then runs
// with the landed bytes once the READ completes. A post the QP refuses
// finishes the GET.
func (g *Get) Read(mr *verbs.MR, off, n int, then func(landed []byte)) {
	c := g.c
	g.res.Reads++
	lo := (c.readSeq % (c.window + 1)) * c.slotBytes
	c.readSeq++
	err := c.rcQP.PostSend(verbs.SendWR{
		Verb:      verbs.READ,
		Remote:    mr,
		RemoteOff: off,
		Local:     c.scratch,
		LocalOff:  lo,
		Len:       n,
		Signaled:  true,
	})
	if err != nil {
		g.Finish()
		return
	}
	c.reads.Push(func() { then(c.scratch.Bytes()[lo : lo+n]) })
}

// Hit makes a copy of v the GET's value and finishes the GET.
func (g *Get) Hit(v []byte) {
	g.res.Status = kv.StatusHit
	g.res.Value = g.c.vals.Copy(v)
	g.Finish()
}

// Finish completes the GET, as a miss unless Hit found its value: it
// frees the window slot, then runs the callback.
func (g *Get) Finish() {
	g.res.Latency = g.c.now() - g.start
	if g.res.Status == kv.StatusUnknown {
		g.res.Status = kv.StatusMiss
	}
	g.c.finishOp()
	if g.cb != nil {
		g.cb(g.res)
	}
}

// MustPost consumes the synchronous error from a verbs post. The
// baselines implement no crash recovery, so any rejected post —
// including an errored queue pair — is unsupported territory: fail
// loudly.
func MustPost(err error) {
	if err != nil {
		panic(err)
	}
}
