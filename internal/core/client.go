package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"herdkv/internal/cluster"
	"herdkv/internal/fifo"
	"herdkv/internal/kv"
	"herdkv/internal/mica"
	"herdkv/internal/sim"
	"herdkv/internal/telemetry"
	"herdkv/internal/verbs"
	"herdkv/internal/wire"
)

// ErrTimedOut is the terminal error of an operation that exhausted its
// retry budget (Config.MaxRetries) without a response — the server is
// crashed, partitioned away, or the fabric ate every attempt. The
// operation may still have executed server-side (at-least-once
// semantics); all HERD operations are idempotent, so callers may simply
// reissue.
var ErrTimedOut = errors.New("herd: operation timed out after retry budget")

// Result is the outcome of one HERD operation, delivered to the caller's
// callback when the response SEND arrives — or when the op fails
// terminally, in which case Err is non-nil and Status is
// kv.StatusTimeout. It is an alias of the unified kv.Result, so HERD
// callbacks interoperate with everything written against the kv.KV
// client interface.
type Result = kv.Result

// Client implements the shared client interface.
var _ kv.KV = (*Client)(nil)

type opKind int

const (
	opGet opKind = iota
	opPut
)

type pendingOp struct {
	key      kv.Key
	kind     opKind
	value    []byte
	issuedAt sim.Time
	cb       func(Result)

	// began/begun record the op's FIRST issue: busy pushback reissues
	// the op as a fresh wire transaction, but latency is measured from
	// the original issue.
	began bool
	begun sim.Time

	// Retry state.
	proc    int
	r       int // request sequence number within (client, proc)
	payload []byte
	slotOff int
	retries int
	done    bool

	// attempt is a generation counter for the op's timers: every
	// (re)issue, completion, and failure bumps it, so a timer armed for
	// an earlier attempt finds a stale generation and does nothing.
	// Without it, a completion racing a reconnect-reissue would leave
	// two live timer chains retransmitting duplicates of the same op.
	// The counter survives recycling (newOp does not reset it), so a
	// timer holding a recycled op also sees a dead generation.
	attempt int

	// buf backs the op's encoded request payload; requests always fit
	// one slot. Living inside the pooled op, it makes issue (and every
	// retry retransmission, which re-posts payload) allocation-free.
	buf [SlotSize]byte

	trace *telemetry.Trace
}

// kindName returns the trace name for an operation kind.
//
//herd:hotpath
func (k opKind) kindName() string {
	switch k {
	case opPut:
		return "PUT"
	}
	return "GET"
}

// Client is one HERD client process: one request QP (per
// Config.RequestPath) for delivering requests to the server, and NS UD
// QPs for receiving responses.
type Client struct {
	srv     *Server
	id      int
	machine *cluster.Machine

	// reqQP carries requests: a UC QP WRITEing into the request region
	// (RequestUC), a DC initiator doing the same (RequestDC), or a UD QP
	// SENDing them (RequestSend).
	reqQP  *verbs.QP
	udQPs  []*verbs.QP
	respMR *verbs.MR

	reqSeq   []int                  // next request sequence number per server process
	inflight int                    // outstanding ops against Window
	waiting  fifo.Queue[*pendingOp] // ops queued for a window slot
	perProc  [][]*pendingOp         // outstanding ops per server process, in issue order

	// slotWait[proc] holds ops whose next window slot is still occupied
	// by an outstanding op (one that stalled on retries while younger
	// ops completed around it): the request slot and the response
	// buffer are shared per r mod W. They issue as occupants resolve.
	slotWait []fifo.Queue[*pendingOp]

	// opFree is the pendingOp recycling pool: terminally resolved ops
	// return here and back the next submissions, so the client's
	// steady-state issue path allocates nothing. timerFree pools the
	// records behind every op timer (see opTimer).
	opFree    []*pendingOp
	timerFree []*opTimer

	// vals backs GET-hit values: each is cut from a shared block and
	// handed to one callback (kv.Slab), so a hit allocates nothing.
	vals kv.Slab

	// Per-client event counts, each tracked under its herd.* name
	// when the machine is instrumented.
	retried          *telemetry.Counter
	dupResponses     *telemetry.Counter
	failed           *telemetry.Counter // terminal retry-budget failures
	corruptResponses *telemetry.Counter // responses rejected by the status check
	reconnects       *telemetry.Counter // completed re-registration handshakes
	busyRx           *telemetry.Counter // busy pushback responses received
	windowShrinks    uint64             // multiplicative-decrease events

	// cwnd is the AIMD congestion window (Config.AdaptiveWindow):
	// fractional so additive increase accumulates 1/cwnd per clean
	// completion; the effective window is int(cwnd) clamped to
	// [1, Config.Window].
	cwnd float64

	// rng drives backoff jitter; seeded from the machine seed and client
	// id so retry timing is deterministic per run. jitter builds it at
	// the first draw. With RetryTimeout > 0, armRetry draws on every
	// issue, so such a client builds it at its first op; only a client
	// with RetryTimeout 0 that never reconnects holds none (a math/rand
	// source is about 5 KB).
	rng *sim.Rand

	// Reconnect state: one handshake runs at a time; the generation
	// counter invalidates timeout/reply closures from finished attempts.
	reconnecting bool
	reconnGen    int

	// Telemetry (nil handles when un-instrumented): operation counters
	// and end-to-end latency histograms, aggregated across clients.
	tel                     *telemetry.Sink
	telIssued, telCompleted *telemetry.Counter
	telWindow               *telemetry.Gauge
	latGet, latPut          *telemetry.Histogram
}

// Retries reports how many application-level request rewrites this
// client has performed (nonzero only under packet loss with
// Config.RetryTimeout set).
func (c *Client) Retries() uint64 { return c.retried.Value() }

// Failed reports operations that ended with a terminal ErrTimedOut
// after exhausting the retry budget.
func (c *Client) Failed() uint64 { return c.failed.Value() }

// DupResponses reports responses discarded because no outstanding op
// matched them (duplicates from retried requests).
func (c *Client) DupResponses() uint64 { return c.dupResponses.Value() }

// CorruptResponses reports responses rejected by the status validity
// check (damaged in flight by injected corruption).
func (c *Client) CorruptResponses() uint64 { return c.corruptResponses.Value() }

// Reconnects reports completed crash-recovery handshakes.
func (c *Client) Reconnects() uint64 { return c.reconnects.Value() }

// BusyResponses reports busy pushback responses received from the
// server's admission controller.
func (c *Client) BusyResponses() uint64 { return c.busyRx.Value() }

// Window returns the client's current effective request window: the
// AIMD window when Config.AdaptiveWindow is set, Config.Window
// otherwise.
func (c *Client) Window() int { return c.window() }

// ConnectClient attaches a HERD client on machine m: it establishes the
// UC connection for requests (the only connected QP the server needs per
// client — Section 4.2) and the NS UD response QPs.
func (s *Server) ConnectClient(m *cluster.Machine) (*Client, error) {
	if s.nextCli >= s.cfg.MaxClients {
		return nil, fmt.Errorf("core: request region sized for %d clients", s.cfg.MaxClients)
	}
	c := &Client{
		srv:      s,
		id:       s.nextCli,
		machine:  m,
		reqSeq:   make([]int, s.cfg.NS),
		perProc:  make([][]*pendingOp, s.cfg.NS),
		slotWait: make([]fifo.Queue[*pendingOp], s.cfg.NS),
		cwnd:     float64(s.cfg.Window),
	}
	s.nextCli++
	c.tel = m.Verbs.Telemetry()
	telemetry.NewCells(c.tel, &c.retried, &c.dupResponses, &c.failed, &c.corruptResponses, &c.reconnects, &c.busyRx)
	c.telIssued = c.tel.Counter("herd.ops.issued")
	c.telCompleted = c.tel.Counter("herd.ops.completed")
	c.tel.Counter("herd.retries").Track(c.retried)
	c.tel.Counter("herd.responses.duplicate").Track(c.dupResponses)
	c.tel.Counter("herd.ops.failed").Track(c.failed)
	c.tel.Counter("herd.responses.corrupt").Track(c.corruptResponses)
	c.tel.Counter("herd.reconnects").Track(c.reconnects)
	c.tel.Counter("herd.busy_rx").Track(c.busyRx)
	c.telWindow = c.tel.Gauge("client.window")
	c.telWindow.Set(int64(c.window()))
	c.latGet = c.tel.Histogram("herd.get.latency")
	c.latPut = c.tel.Histogram("herd.put.latency")

	// Request path: one UC QP pair (WRITE mode), a connectionless UD QP
	// (SEND/SEND mode), or a DC initiator (DC mode) — the latter two
	// keep no per-client state at the server NIC.
	switch s.cfg.RequestPath {
	case RequestSend:
		c.reqQP = m.Verbs.CreateQP(wire.UD)
	case RequestDC:
		c.reqQP = m.Verbs.CreateQP(wire.DC)
	default:
		serverUC := s.machine.Verbs.CreateQP(wire.UC)
		c.reqQP = m.Verbs.CreateQP(wire.UC)
		if err := verbs.Connect(c.reqQP, serverUC); err != nil {
			return nil, err
		}
		s.ucByClient[c.id] = serverUC
	}

	// Response path: NS UD QPs and a response region with one slot per
	// (process, window) pair.
	c.respMR = m.Verbs.RegisterMR(s.cfg.NS * s.cfg.Window * SlotSize)
	c.udQPs = make([]*verbs.QP, s.cfg.NS)
	for p := 0; p < s.cfg.NS; p++ {
		p := p
		c.udQPs[p] = m.Verbs.CreateQP(wire.UD)
		c.udQPs[p].RecvCQ().SetHandler(func(comp verbs.Completion) {
			c.handleResponse(p, comp)
		})
	}
	s.clientUD = append(s.clientUD, c.udQPs)
	return c, nil
}

// Inflight returns the number of outstanding operations.
func (c *Client) Inflight() int { return c.inflight }

// newOp returns a pendingOp from the recycling pool (or a fresh one),
// initialized for a new operation. Every field resets except attempt,
// which stays monotonic so timers armed for the op's previous life see
// a dead generation.
func (c *Client) newOp(kind opKind, key kv.Key, cb func(Result)) *pendingOp {
	var op *pendingOp
	if n := len(c.opFree); n > 0 {
		op = c.opFree[n-1]
		c.opFree = c.opFree[:n-1]
	} else {
		op = new(pendingOp)
	}
	op.key = key
	op.kind = kind
	op.value = op.value[:0]
	op.issuedAt = 0
	op.cb = cb
	op.began = false
	op.begun = 0
	op.proc = 0
	op.r = 0
	op.payload = nil
	op.slotOff = 0
	op.retries = 0
	op.done = false
	op.trace = nil
	return op
}

// recycleOp returns a terminally resolved op (done, callback already
// run, removed from every queue) to the pool. The attempt bump kills
// any retry or delayed-resubmit timer still holding the pointer.
func (c *Client) recycleOp(op *pendingOp) {
	op.attempt++
	op.cb = nil
	op.payload = nil
	op.trace = nil
	c.opFree = append(c.opFree, op)
}

// Get issues a GET for key; cb runs when the response arrives.
func (c *Client) Get(key kv.Key, cb func(Result)) error {
	if key.IsZero() {
		return mica.ErrZeroKey
	}
	c.submit(c.newOp(opGet, key, cb))
	return nil
}

// Put issues a PUT; cb runs when the ack arrives. Values are limited to
// the 1 KB item size minus headers; empty values are not allowed (a zero
// LEN denotes a GET in the slot format).
func (c *Client) Put(key kv.Key, value []byte, cb func(Result)) error {
	if key.IsZero() {
		return mica.ErrZeroKey
	}
	if len(value) == 0 {
		return kv.ErrEmptyValue
	}
	if len(value) > mica.MaxValueSize {
		return mica.ErrValueTooLarge
	}
	op := c.newOp(opPut, key, cb)
	// Copy into the pooled op's buffer (the caller may reuse value); a
	// recycled op's capacity makes the copy allocation-free.
	op.value = append(op.value, value...)
	c.submit(op)
	return nil
}

// opTimer is one armed op timer: a pooled sim.Handler carrying the op
// and the attempt generation it was armed under. It returns to the
// client's pool when it fires, so every arm takes its own record: a
// stale timer (the op completed, or busy pushback re-armed it) stays
// queued on the engine beside the op's live one, holding a record of
// its own until it fires as a no-op.
type opTimer struct {
	c    *Client
	op   *pendingOp
	gen  int
	kind timerKind
}

// timerKind is what an expiring opTimer does.
type timerKind uint8

const (
	// timerRetry retransmits the op, or fails it once the retry budget
	// is spent (Section 2.2.3's application-level retry).
	timerRetry timerKind = iota
	// timerResubmit resubmits an op after a busy pushback's hint.
	timerResubmit
)

// armTimer schedules an opTimer of kind for op at instant at.
//
//herd:hotpath
func (c *Client) armTimer(at sim.Time, op *pendingOp, kind timerKind) {
	var t *opTimer
	if n := len(c.timerFree); n > 0 {
		t = c.timerFree[n-1]
		c.timerFree = c.timerFree[:n-1]
	} else {
		t = &opTimer{c: c} //lint:allow hotalloc — pool miss; the pool grows to the timers in flight
	}
	t.op, t.gen, t.kind = op, op.attempt, kind
	c.machine.Verbs.NIC().Engine().AtHandler(at, t)
}

// Fire releases the record, then acts on its op. It checks the attempt
// generation, not just done: a completion, terminal failure or reissue
// since arming bumped it, and an op failed and recycled into a new
// operation has done false again but a moved-on generation.
//
//herd:hotpath
func (t *opTimer) Fire(sim.Time) {
	c, op, gen, kind := t.c, t.op, t.gen, t.kind
	t.op = nil
	c.timerFree = append(c.timerFree, t)
	if op.done || op.attempt != gen {
		return // stale timer: the op completed, failed, or was reissued
	}
	if kind == timerResubmit {
		c.submit(op)
		return
	}
	if op.retries >= c.srv.cfg.maxRetries() {
		c.failOp(op) //lint:allow hotalloc — terminal failure starts the reconnect handshake
		return
	}
	op.retries++
	op.attempt++
	c.retried.Inc()
	op.trace.Mark("retry", c.machine.Verbs.NIC().Engine().Now())
	// The retry may produce a duplicate response (if the original
	// response, not the request, was lost): post a spare RECV so the
	// duplicate cannot starve a later operation's completion.
	respSlot := (op.proc*c.srv.cfg.Window + op.r%c.srv.cfg.Window) * SlotSize
	postLossy(c.udQPs[op.proc].PostRecv(c.respMR, respSlot, SlotSize, uint64(op.r)))
	c.writeRequest(op)
	c.armRetry(op)
}

// window returns the effective request window: Config.Window when the
// AIMD controller is disabled, otherwise the integer part of cwnd
// clamped to [1, Config.Window].
//
//herd:hotpath
func (c *Client) window() int {
	if !c.srv.cfg.AdaptiveWindow {
		return c.srv.cfg.Window
	}
	w := int(c.cwnd)
	if w < 1 {
		w = 1
	}
	if w > c.srv.cfg.Window {
		w = c.srv.cfg.Window
	}
	return w
}

// aimdGrow applies additive increase after a clean served completion:
// cwnd grows by 1/cwnd, i.e. one slot per window's worth of successes.
func (c *Client) aimdGrow() {
	if !c.srv.cfg.AdaptiveWindow {
		return
	}
	if c.cwnd < float64(c.srv.cfg.Window) {
		c.cwnd += 1 / c.cwnd
		if c.cwnd > float64(c.srv.cfg.Window) {
			c.cwnd = float64(c.srv.cfg.Window)
		}
	}
	c.telWindow.Set(int64(c.window()))
}

// aimdShrink applies multiplicative decrease on a congestion signal
// (busy pushback or a terminal timeout): cwnd halves, floored at 1.
func (c *Client) aimdShrink() {
	if !c.srv.cfg.AdaptiveWindow {
		return
	}
	c.cwnd /= 2
	if c.cwnd < 1 {
		c.cwnd = 1
	}
	c.windowShrinks++
	c.telWindow.Set(int64(c.window()))
}

// pumpWaiting issues queued ops while the effective window has room.
// issue() can park an op on a slot collision without raising inflight;
// the break keeps one parked op from draining the whole queue into
// parked limbo in a single call.
func (c *Client) pumpWaiting() {
	for c.waiting.Len() > 0 && c.inflight < c.window() {
		before := c.inflight
		c.issue(c.waiting.Pop())
		if c.inflight == before {
			break
		}
	}
}

// submit issues op, or queues it while the window is full.
//
//herd:hotpath
func (c *Client) submit(op *pendingOp) {
	if c.inflight >= c.window() {
		c.waiting.Push(op)
		return
	}
	c.issue(op)
}

// issue puts op on the wire in its window slot, or parks it while the
// slot is occupied.
//
//herd:hotpath
func (c *Client) issue(op *pendingOp) {
	cfg := c.srv.cfg
	proc := mica.Partition(op.key, cfg.NS)
	r := c.reqSeq[proc]
	for _, o := range c.perProc[proc] {
		if o.r%cfg.Window == r%cfg.Window {
			// The slot's previous occupant is still outstanding — it
			// stalled on a retry while younger ops on this process
			// completed around it. The two would share one request slot
			// and one response buffer, so park until the occupant
			// resolves.
			c.slotWait[proc].Push(op)
			return
		}
	}
	c.reqSeq[proc]++

	// Post the RECV for the response before writing the request
	// (Section 4.3).
	respSlot := (proc*cfg.Window + r%cfg.Window) * SlotSize
	postLossy(c.udQPs[proc].PostRecv(c.respMR, respSlot, SlotSize, uint64(r)))

	// Build the request so it ends exactly at the slot boundary: the
	// keyhash lands last under left-to-right DMA ordering.
	slotOff := cfg.SlotIndex(proc, c.id, r) * SlotSize
	payload := c.encodeRequest(op, r)
	op.proc = proc
	op.r = r
	op.payload = payload
	op.slotOff = slotOff + SlotSize - len(payload)
	op.issuedAt = c.machine.Verbs.NIC().Engine().Now()
	if !op.began {
		// First issue: latency is anchored here; busy-pushback
		// reissues keep the original anchor.
		op.began = true
		op.begun = op.issuedAt
	}
	c.inflight++
	c.telIssued.Inc()
	c.perProc[proc] = append(c.perProc[proc], op)

	if c.tel.Tracing() {
		if op.trace == nil {
			op.trace = c.tel.StartTrace(op.kind.kindName(), op.begun)
			op.trace.SetPrefix("req.")
		}
		if cfg.RequestPath != RequestSend {
			// WRITE/DC mode: hand the trace to the server by slot, since
			// the request travels only as memory bytes.
			c.srv.noteTrace(cfg.SlotIndex(proc, c.id, r), op.trace) //lint:allow hotalloc — tracing only
		}
	}
	c.writeRequest(op)
	c.armRetry(op)
}

// encodeRequest builds op's request bytes in op.buf and returns the
// encoded payload (aliasing op.buf, which outlives every
// retransmission): [value][tag 2][LEN 2][keyhash 16], with the keyhash
// last so a WRITE/DC request ends at the slot boundary. SEND mode puts
// the client id before the tag.
//
//herd:hotpath
func (c *Client) encodeRequest(op *pendingOp, r int) []byte {
	n := copy(op.buf[:], op.value) // a GET's value is empty
	if c.srv.cfg.RequestPath == RequestSend {
		binary.LittleEndian.PutUint16(op.buf[n:], uint16(c.id))
		n += 2
	}
	binary.LittleEndian.PutUint16(op.buf[n:], uint16(r))
	binary.LittleEndian.PutUint16(op.buf[n+2:], uint16(len(op.value)))
	n += 4 + copy(op.buf[n+4:], op.key[:])
	return op.buf[:n]
}

// writeRequest posts (or re-posts) op's request on the request QP: a
// WRITE into the request region, addressed to the server's DC target
// in DC mode, or a UD SEND to the key's process in SEND/SEND mode.
//
//herd:hotpath
func (c *Client) writeRequest(op *pendingOp) {
	wr := verbs.SendWR{
		Verb:      verbs.WRITE,
		Data:      op.payload,
		Remote:    c.srv.region,
		RemoteOff: op.slotOff,
		Inline:    len(op.payload) <= c.machine.Verbs.NIC().Params().InlineMax,
		Trace:     op.trace,
	}
	switch c.srv.cfg.RequestPath {
	case RequestSend:
		wr.Verb, wr.Remote, wr.RemoteOff = verbs.SEND, nil, 0
		wr.Dest = c.srv.udQPs[op.proc]
	case RequestDC:
		wr.Dest = c.srv.dcQP
	}
	postLossy(c.reqQP.PostSend(wr))
}

// retryDelay computes the delay before retry number k (0-based): the
// base timeout grown exponentially, capped, then jittered.
//
//herd:hotpath
func (c *Client) retryDelay(k int) sim.Time {
	base := c.srv.cfg.RetryTimeout
	d := base
	for i := 0; i < k; i++ {
		d *= retryBackoff
		if d >= retryBackoffCap*base {
			d = retryBackoffCap * base
			break
		}
	}
	return c.jitter(d)
}

// reconnectTimeout computes the timeout of reconnect handshake attempt
// k (0-based): retries' backoff from a longer base, uncapped, jittered.
func (c *Client) reconnectTimeout(k int) sim.Time {
	d := reconnectFactor * c.srv.cfg.RetryTimeout
	for i := 0; i < k; i++ {
		d *= retryBackoff
	}
	return c.jitter(d)
}

// jitter stretches d by a uniformly random fraction in [0, retryJitter]
// so concurrent clients' retry storms decorrelate. The draw comes from
// the client's seeded RNG, so a run replays exactly.
//
//herd:hotpath
func (c *Client) jitter(d sim.Time) sim.Time {
	if c.rng == nil {
		c.rng = sim.NewRand(c.machine.Seed*4099 + int64(c.id))
	}
	return d + sim.Time(c.rng.Float64()*retryJitter*float64(d))
}

// armRetry arms the application-level retry timer (Section 2.2.3's
// answer to the unreliable transports). The timer records the op's
// current attempt generation: a completion, terminal failure, or
// reconnect-reissue bumps the generation, so the timer fires as a no-op
// instead of retransmitting a finished or superseded op.
//
//herd:hotpath
func (c *Client) armRetry(op *pendingOp) {
	if c.srv.cfg.RetryTimeout <= 0 {
		return
	}
	eng := c.machine.Verbs.NIC().Engine()
	c.armTimer(eng.Now()+c.retryDelay(op.retries), op, timerRetry)
}

// releaseSlot re-issues one op parked on proc's window slots after an
// occupant resolved. The parked op recomputes its slot on issue and
// parks again if the next slot is also blocked.
func (c *Client) releaseSlot(proc int) {
	if c.slotWait[proc].Len() == 0 {
		return
	}
	c.issue(c.slotWait[proc].Pop())
}

// failOp terminates an op that exhausted its retry budget: the caller
// gets Result.Err = ErrTimedOut, the window slot is freed, and — since a
// burned budget is the client's stall signal — a reconnection handshake
// starts in case the server process crashed.
func (c *Client) failOp(op *pendingOp) {
	op.done = true
	op.attempt++
	for i, o := range c.perProc[op.proc] {
		if o == op {
			c.perProc[op.proc] = append(c.perProc[op.proc][:i], c.perProc[op.proc][i+1:]...)
			break
		}
	}
	c.releaseSlot(op.proc)
	c.inflight--
	c.failed.Inc()
	c.aimdShrink()
	now := c.machine.Verbs.NIC().Engine().Now()
	op.trace.Mark("failed", now)
	c.startReconnect()
	c.pumpWaiting()
	if op.cb != nil {
		op.cb(Result{
			Key:     op.key,
			IsGet:   op.kind == opGet,
			Status:  kv.StatusTimeout,
			Latency: now - op.begun,
			Err:     ErrTimedOut,
		})
	}
	c.recycleOp(op)
}

// reconnCtrlBytes is the wire size of a handshake control packet (QP
// numbers and rkeys ride in a small datagram).
const reconnCtrlBytes = 64

// startReconnect begins the crash-recovery handshake for WRITE-mode
// clients. The client's connected UC peer on the server died with the
// crash; until a fresh server-side QP is registered, every request WRITE
// lands on an errored QP and vanishes. SEND/SEND and DC clients address
// the server per-message and need no handshake — their retries recover
// on their own once the server restarts.
func (c *Client) startReconnect() {
	if c.srv.cfg.RequestPath != RequestUC || c.reconnecting {
		return
	}
	c.reconnecting = true
	c.reconnGen++
	c.tryReconnect(c.reconnGen, 0)
}

// Reconnect starts a fresh crash-recovery handshake episode, even if
// one is already running: the running episode's attempts may have
// backed off past the moment the server came back. A deployment that
// learns a server restarted calls it, so the client's next request
// does not meet the dead connection.
func (c *Client) Reconnect() {
	c.reconnecting = false
	c.startReconnect()
}

// tryReconnect runs one handshake attempt: a control packet to the
// server asking for re-registration; a live server replaces the errored
// UC pair and echoes a reply. Attempts time out with the same
// backoff-and-jitter policy as request retries and give up after the
// retry budget — a later terminal failure starts a fresh episode.
func (c *Client) tryReconnect(gen, attempt int) {
	if !c.reconnecting || gen != c.reconnGen {
		return
	}
	if attempt > c.srv.cfg.maxRetries() {
		c.reconnecting = false
		return
	}
	eng := c.machine.Verbs.NIC().Engine()
	net := c.machine.Verbs.NIC().Net()
	cli, srv := c.machine.Verbs.Node(), c.srv.machine.Verbs.Node()
	done := false
	net.SendWire(cli, srv, reconnCtrlBytes, func(sim.Time) {
		// Server side, at arrival: a crashed process cannot answer.
		if !c.srv.reregister(c) {
			return
		}
		net.SendWire(srv, cli, reconnCtrlBytes, func(at sim.Time) {
			if done || !c.reconnecting || gen != c.reconnGen {
				return
			}
			done = true
			c.finishReconnect(at)
		})
	})
	eng.After(c.reconnectTimeout(attempt), func() {
		if done || !c.reconnecting || gen != c.reconnGen {
			return
		}
		c.tryReconnect(gen, attempt+1)
	})
}

// finishReconnect completes the handshake: the server holds a fresh UC
// pair for this client, so every still-pending op (in flight when the
// crash ate its request-region state) is reissued. Each reissue bumps
// the op's attempt generation, killing any timer armed for the
// pre-reconnect transmission.
func (c *Client) finishReconnect(at sim.Time) {
	c.reconnecting = false
	c.reconnects.Inc()
	for proc := range c.perProc {
		for _, op := range c.perProc[proc] {
			op.attempt++
			op.trace.Mark("reconnect.reissue", at)
			respSlot := (op.proc*c.srv.cfg.Window + op.r%c.srv.cfg.Window) * SlotSize
			postLossy(c.udQPs[op.proc].PostRecv(c.respMR, respSlot, SlotSize, uint64(op.r)))
			c.writeRequest(op)
			c.armRetry(op)
		}
	}
}

// parseRespHeader validates a response's status header and extracts
// the routing fields. ok is false for damaged responses: injected
// corruption zeroes the packet tail and scrambles the rest, so the
// status byte cannot hold a valid code — and a busy pushback must
// carry its fixed-size retry-after hint, so anything claiming busy
// without one is damage too.
//
//herd:hotpath
func parseRespHeader(data []byte) (status byte, tag uint16, ok bool) {
	if len(data) < respHdr {
		return 0, 0, false
	}
	switch s := data[0]; {
	case s == statusOK || s == statusNotFound:
	case s == statusBusy &&
		int(binary.LittleEndian.Uint16(data[1:3])) == busyHintBytes &&
		len(data) >= respHdr+busyHintBytes:
	default:
		return 0, 0, false
	}
	return data[0], binary.LittleEndian.Uint16(data[3:5]), true
}

func (c *Client) handleResponse(proc int, comp verbs.Completion) {
	if comp.Flushed || len(comp.Data) < respHdr {
		return
	}
	// Reject damaged responses before matching — a corrupt tag must not
	// complete (or fail) the wrong op.
	status, tag, ok := parseRespHeader(comp.Data)
	if !ok {
		c.corruptResponses.Inc()
		return
	}
	// Match the response to its operation by the echoed tag; a response
	// whose tag names no outstanding op is a duplicate from a retried
	// request and is discarded.
	idx := -1
	for i, op := range c.perProc[proc] {
		if uint16(op.r) == tag {
			idx = i
			break
		}
	}
	if idx < 0 {
		c.dupResponses.Inc()
		return
	}
	op := c.perProc[proc][idx]
	c.perProc[proc] = append(c.perProc[proc][:idx], c.perProc[proc][idx+1:]...)
	if status == statusBusy {
		hint := sim.Time(binary.LittleEndian.Uint32(comp.Data[respHdr:])) * sim.Nanosecond
		c.handleBusy(op, hint)
		return
	}
	op.done = true
	op.attempt++ // invalidate any armed retry timer
	c.releaseSlot(op.proc)
	c.inflight--
	c.telCompleted.Inc()
	c.aimdGrow()

	res := Result{
		Key:     op.key,
		IsGet:   op.kind == opGet,
		Latency: c.machine.Verbs.NIC().Engine().Now() - op.begun,
	}
	switch op.kind {
	case opGet:
		c.latGet.RecordTime(res.Latency)
	case opPut:
		c.latPut.RecordTime(res.Latency)
	}
	res.Status = kv.StatusMiss
	if status == statusOK {
		res.Status = kv.StatusHit
	}
	if op.kind == opGet && res.Status == kv.StatusHit {
		vlen := int(binary.LittleEndian.Uint16(comp.Data[1:3]))
		if respHdr+vlen <= len(comp.Data) {
			res.Value = c.vals.Copy(comp.Data[respHdr : respHdr+vlen])
			// A lease-granting server appends the absolute expiry after
			// the value (Config.LeaseTTL). A short frame (corruption
			// injection truncating the tail) leaves Lease zero — "no
			// lease" — which is always safe for a cache to observe.
			if c.srv.cfg.LeaseTTL > 0 && len(comp.Data) >= respHdr+vlen+leaseBytes {
				res.Lease = sim.Time(binary.LittleEndian.Uint64(comp.Data[respHdr+vlen:]))
			}
		}
	}

	// Window slot freed: issue the next queued op before the callback so
	// closed-loop clients keep the pipe full.
	c.pumpWaiting()
	if op.cb != nil {
		op.cb(res)
	}
	c.recycleOp(op)
}

// handleBusy processes a busy pushback: the server shed the
// request at poll time and attached a retry-after hint. The op leaves
// the wire (freeing its window slot) and resubmits after the hinted
// delay, however many times the server sheds it. Busy is a congestion
// signal, not a crash signal: the AIMD window halves but no reconnect
// handshake starts and the retry-backoff counter resets.
func (c *Client) handleBusy(op *pendingOp, hint sim.Time) {
	op.attempt++ // invalidate the armed retry timer; the op re-arms on reissue
	op.retries = 0
	c.releaseSlot(op.proc)
	c.inflight--
	c.busyRx.Inc()
	c.aimdShrink()
	now := c.machine.Verbs.NIC().Engine().Now()
	op.trace.Mark("busy", now)

	c.armTimer(now+c.jitter(hint), op, timerResubmit)
	c.pumpWaiting()
}
