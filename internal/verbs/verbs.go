// Package verbs implements the RDMA verbs interface over the simulated
// RNIC, PCIe, and fabric models: queue pairs on RC/UC/UD transports,
// memory regions, completion queues, and the READ / WRITE / SEND / RECV
// verbs with inlining and selective signaling.
//
// The layer is functional as well as timed: WRITEs and SENDs move real
// bytes between registered memory regions, READs return real remote
// bytes, and completion events fire at the simulated instants the
// hardware would produce them. Systems built on top (HERD, Pilaf-em,
// FaRM-em) therefore run their actual protocols.
package verbs

import (
	"errors"
	"fmt"

	"herdkv/internal/fifo"
	"herdkv/internal/nic"
	"herdkv/internal/sim"
	"herdkv/internal/telemetry"
	"herdkv/internal/wire"
)

// Verb identifies an RDMA operation type.
type Verb int

// The verbs relevant to this work (Section 2.2.2).
const (
	WRITE Verb = iota
	READ
	SEND
	RECV
)

// String returns the verb's conventional name.
func (v Verb) String() string {
	switch v {
	case WRITE:
		return "WRITE"
	case READ:
		return "READ"
	case SEND:
		return "SEND"
	case RECV:
		return "RECV"
	}
	return "?"
}

// Errors returned by verb posting.
var (
	// ErrVerbNotSupported enforces Table 1: UC does not support READ,
	// and UD supports neither READ nor WRITE.
	ErrVerbNotSupported = errors.New("verbs: verb not supported on this transport")
	// ErrInlineTooLarge rejects inline payloads above the device limit.
	ErrInlineTooLarge = errors.New("verbs: inline payload exceeds device limit")
	// ErrNotConnected is returned for connected-transport verbs on an
	// unconnected QP.
	ErrNotConnected = errors.New("verbs: queue pair not connected")
	// ErrNoDestination is returned for UD SENDs without a destination.
	ErrNoDestination = errors.New("verbs: UD SEND requires a destination QP")
	// ErrBounds is returned when an access falls outside a memory region.
	ErrBounds = errors.New("verbs: access outside memory region")
	// ErrQPState is returned when posting to a queue pair in the error
	// state (its owning process crashed or it was explicitly errored).
	ErrQPState = errors.New("verbs: queue pair in error state")
)

// SupportedVerbs reports Table 1 of the paper: which verbs each
// transport supports. The Dynamically Connected transport (a Connect-IB
// feature, Section 5.5) behaves like RC at the verb level while
// addressing peers per-message like UD.
func SupportedVerbs(t wire.Transport) []Verb {
	switch t {
	case wire.RC, wire.DC:
		return []Verb{SEND, RECV, WRITE, READ}
	case wire.UC:
		return []Verb{SEND, RECV, WRITE}
	default:
		return []Verb{SEND, RECV}
	}
}

// reliable reports whether t acknowledges delivery (RC and DC).
func reliable(t wire.Transport) bool { return t == wire.RC || t == wire.DC }

// Supports reports whether transport t supports verb v.
func Supports(t wire.Transport, v Verb) bool {
	for _, s := range SupportedVerbs(t) {
		if s == v {
			return true
		}
	}
	return false
}

// MR is a registered memory region on one host.
type MR struct {
	host     *Host
	buf      []byte
	watchers []watcher
}

type watcher struct {
	lo, hi int
	fn     func(off, n int)
}

// Bytes exposes the region's backing memory.
func (m *MR) Bytes() []byte { return m.buf }

// Len returns the region size.
func (m *MR) Len() int { return len(m.buf) }

// Watch registers fn to run whenever an inbound WRITE lands in
// [lo, hi). HERD's request region and FaRM's circular buffers poll
// memory for new data; Watch is the simulation hook that tells the
// polling model when bytes became visible.
func (m *MR) Watch(lo, hi int, fn func(off, n int)) {
	m.watchers = append(m.watchers, watcher{lo: lo, hi: hi, fn: fn})
}

func (m *MR) landed(off, n int) {
	for _, w := range m.watchers {
		if off < w.hi && off+n > w.lo {
			w.fn(off, n)
		}
	}
}

// Completion describes a completed verb.
type Completion struct {
	QPN     uint32
	WRID    uint64
	Verb    Verb
	Bytes   int
	At      sim.Time
	Data    []byte // RECV: the received payload
	SrcQPN  uint32 // RECV on UD: the sender's QP number
	Flushed bool   // WR flushed in error when its QP transitioned to error

	// Trace carries the lifecycle trace of the SEND that produced this
	// RECV completion, if the sender attached one — how a traced request
	// propagates to the consumer in channel-semantics (SEND/SEND) mode.
	Trace *telemetry.Trace
}

// CQ is a completion queue. Completions go to its event handler (the
// natural style inside the simulator's event loop); a CQ with no
// handler discards them.
type CQ struct {
	handler func(Completion)
}

// NewCQ returns a completion queue with no handler.
func NewCQ() *CQ { return &CQ{} }

// SetHandler delivers future completions to fn.
func (cq *CQ) SetHandler(fn func(Completion)) { cq.handler = fn }

func (cq *CQ) push(c Completion) {
	if cq.handler != nil {
		cq.handler(c)
	}
}

// Host is one machine's RDMA endpoint: a NIC plus its registered
// memory and queue pairs.
type Host struct {
	eng     *sim.Engine
	nic     *nic.NIC
	qps     map[uint32]*QP
	nextQPN uint32
	opFree  []*sendOp // recycled work-request records (see sendOp)

	// Telemetry (nil handles when un-instrumented): per-verb posted and
	// completed counters and the inlined-vs-DMA'd and
	// signaled-vs-unsignaled splits. Counter names are registry-global,
	// so hosts aggregate cluster-wide.
	tel          *telemetry.Sink
	telPosted    [RECV + 1]*telemetry.Counter
	telCompleted [RECV + 1]*telemetry.Counter
	telInline    *telemetry.Counter
	telDMA       *telemetry.Counter
	telSignaled  *telemetry.Counter
	telUnsig     *telemetry.Counter
	telDropped   *telemetry.Counter
}

// NewHost wraps n as a verbs endpoint.
func NewHost(eng *sim.Engine, n *nic.NIC) *Host {
	return &Host{eng: eng, nic: n, qps: make(map[uint32]*QP)}
}

// SetTelemetry attaches the sink and eagerly registers the per-verb
// counters (so a metrics dump always lists every verb, used or not).
// Call it before creating queue pairs: per-QP counters are bound at
// CreateQP time.
func (h *Host) SetTelemetry(s *telemetry.Sink) {
	h.tel = s
	for v := WRITE; v <= RECV; v++ {
		//lint:allow telemnames — per-verb names verbs.<VERB>.posted/.completed are catalogued in docs/OBSERVABILITY.md
		h.telPosted[v] = s.Counter("verbs." + v.String() + ".posted")
		//lint:allow telemnames — see above; <VERB> ranges over WRITE..RECV
		h.telCompleted[v] = s.Counter("verbs." + v.String() + ".completed")
	}
	h.telInline = s.Counter("verbs.payload.inlined")
	h.telDMA = s.Counter("verbs.payload.dma")
	h.telSignaled = s.Counter("verbs.posted.signaled")
	h.telUnsig = s.Counter("verbs.posted.unsignaled")
	h.telDropped = s.Counter("verbs.send.dropped")
}

// Telemetry returns the attached sink (nil when un-instrumented).
func (h *Host) Telemetry() *telemetry.Sink { return h.tel }

// NIC returns the underlying device model.
func (h *Host) NIC() *nic.NIC { return h.nic }

// Node returns the host's fabric address.
func (h *Host) Node() wire.NodeID { return h.nic.Node() }

// RegisterMR registers size bytes of memory with the NIC.
func (h *Host) RegisterMR(size int) *MR {
	return &MR{host: h, buf: make([]byte, size)}
}

// recvBuf is a pre-posted RECV.
type recvBuf struct {
	mr   *MR
	off  int
	len  int
	wrid uint64
}

// QP is a queue pair.
type QP struct {
	host      *Host
	qpn       uint32
	transport wire.Transport
	sendCQ    *CQ
	recvCQ    *CQ

	remote *QP // connected transports only

	recvQueue fifo.Queue[recvBuf]

	// opQueue holds posted work requests in strict FIFO order until
	// their PIO/payload-fetch phase completes and the READ window allows
	// them to issue.
	opQueue fifo.Queue[*sendOp]

	// outstandingReads counts in-flight READs against ReadWindow.
	outstandingReads int

	// txGate and rxGate preserve per-QP FIFO ordering across context-
	// cache miss stalls: a context fetch stalls this QP's pipeline, so a
	// later verb never overtakes an earlier one on the same QP.
	txGate sim.Time
	rxGate sim.Time

	// RC ordering: ACKed completions pop in post order.
	awaitingAck fifo.Queue[pendingAck]

	// errored marks the QP as transitioned to the error state: posted
	// WRs flush with Flushed completions, new posts are rejected, and
	// inbound traffic is silently discarded (the peer's NIC would see
	// NAKs or nothing, depending on transport). A crashed process's QPs
	// all end up here; there is no way back — recovery creates fresh
	// queue pairs, as real verbs applications do.
	errored bool

	// qpPosted holds per-QP posted counters when the sink is QP-scoped
	// (Sink.PerQP); nil entries are no-ops.
	qpPosted [RECV + 1]*telemetry.Counter
}

type pendingAck struct {
	wr    SendWR
	bytes int
}

// CreateQP creates a queue pair on transport t with fresh completion
// queues.
func (h *Host) CreateQP(t wire.Transport) *QP {
	h.nextQPN++
	qp := &QP{
		host:      h,
		qpn:       h.nextQPN,
		transport: t,
		sendCQ:    NewCQ(),
		recvCQ:    NewCQ(),
	}
	if h.tel.QPScoped() {
		for v := WRITE; v <= RECV; v++ {
			//lint:allow telemnames — per-QP counters verbs.qp.n<node>.q<qpn>.<VERB>.posted are catalogued in docs/OBSERVABILITY.md
			qp.qpPosted[v] = h.tel.Counter(fmt.Sprintf(
				"verbs.qp.n%d.q%d.%s.posted", h.Node(), qp.qpn, v))
		}
	}
	h.qps[qp.qpn] = qp
	return qp
}

// countPost records one posted verb on the host's (and, when QP-scoped,
// this QP's) counters. payload and inline describe the payload path:
// inlined payloads ride the PIO'd WQE, non-inlined ones cost a DMA
// fetch.
func (qp *QP) countPost(v Verb, payloadLen int, inline, signaled bool) {
	h := qp.host
	h.telPosted[v].Inc()
	qp.qpPosted[v].Inc()
	if payloadLen > 0 {
		if inline {
			h.telInline.Inc()
		} else {
			h.telDMA.Inc()
		}
	}
	if signaled {
		h.telSignaled.Inc()
	} else {
		h.telUnsig.Inc()
	}
}

// SendCQ and RecvCQ return the QP's completion queues.
func (qp *QP) SendCQ() *CQ { return qp.sendCQ }
func (qp *QP) RecvCQ() *CQ { return qp.recvCQ }

// SetError transitions the QP to the error state, flushing every
// outstanding work request — queued sends, un-ACKed RC verbs, and posted
// RECVs — to its completion queues with Flushed set. Used by the fault
// injector when the owning process crashes: flushed-in-error completions
// are how real RNICs report work lost to a dead QP.
func (qp *QP) SetError() {
	if qp.errored {
		return
	}
	qp.errored = true
	for qp.opQueue.Len() > 0 {
		op := qp.opQueue.Pop()
		qp.sendCQ.push(Completion{
			QPN: qp.qpn, WRID: op.wr.WRID, Verb: op.wr.Verb,
			At: qp.host.eng.Now(), Flushed: true,
		})
	}
	for qp.awaitingAck.Len() > 0 {
		pa := qp.awaitingAck.Pop()
		qp.sendCQ.push(Completion{
			QPN: qp.qpn, WRID: pa.wr.WRID, Verb: pa.wr.Verb,
			At: qp.host.eng.Now(), Flushed: true,
		})
	}
	for qp.recvQueue.Len() > 0 {
		rb := qp.recvQueue.Pop()
		qp.recvCQ.push(Completion{
			QPN: qp.qpn, WRID: rb.wrid, Verb: RECV,
			At: qp.host.eng.Now(), Flushed: true,
		})
	}
	qp.outstandingReads = 0
}

// Connect pairs two queue pairs on a connected transport. Both ends must
// use the same transport type; UD and DC QPs address their peers
// per-message and cannot be statically connected.
func Connect(a, b *QP) error {
	if a.transport == wire.UD || b.transport == wire.UD ||
		a.transport == wire.DC || b.transport == wire.DC {
		return fmt.Errorf("verbs: cannot connect %v/%v queue pairs: %w",
			a.transport, b.transport, ErrVerbNotSupported)
	}
	if a.transport != b.transport {
		return fmt.Errorf("verbs: transport mismatch %v vs %v", a.transport, b.transport)
	}
	a.remote, b.remote = b, a
	return nil
}

// globalKey identifies a QP across the whole fabric for context caching.
func (qp *QP) globalKey() uint64 {
	return uint64(qp.host.Node())<<32 | uint64(qp.qpn)
}

// recvCtxKey is the responder-side context-cache key for inbound traffic
// to this QP. All DC traffic into a host shares one DC target context
// (the transport's scalability property); every other transport keeps
// per-QP receive state.
func (qp *QP) recvCtxKey() uint64 {
	if qp.transport == wire.DC {
		return uint64(qp.host.Node())<<32 | 0x00dc00dc
	}
	return qp.globalKey()
}

// PostRecv posts a receive buffer of length n at mr[off:]. Incoming
// SENDs consume RECVs in FIFO order; a SEND arriving with no RECV posted
// is dropped (UC/UD semantics; our RC model counts it as dropped too
// rather than modeling RNR retries).
func (qp *QP) PostRecv(mr *MR, off, n int, wrid uint64) error {
	if qp.errored {
		return ErrQPState
	}
	if off < 0 || n < 0 || off+n > len(mr.buf) {
		return ErrBounds
	}
	qp.host.telPosted[RECV].Inc()
	qp.qpPosted[RECV].Inc()
	qp.recvQueue.Push(recvBuf{mr: mr, off: off, len: n, wrid: wrid})
	return nil
}

// SendWR describes a work request for PostSend.
type SendWR struct {
	WRID uint64
	Verb Verb

	// Data is the payload for WRITE and SEND. It is copied at post time.
	Data []byte

	// Remote locates the target of a WRITE or the source of a READ.
	Remote    *MR
	RemoteOff int

	// Local receives READ results.
	Local    *MR
	LocalOff int
	// Len is the READ length.
	Len int

	// Inline requests payload inlining in the WQE (payloads up to the
	// device's InlineMax; avoids the DMA fetch).
	Inline bool
	// Signaled requests a completion on the send CQ. Unsignaled verbs
	// produce no completion (selective signaling, Section 2.2.2).
	Signaled bool

	// Dest is the destination QP for UD SENDs.
	Dest *QP

	// Trace, when non-nil, records this verb's lifecycle stages (PIO,
	// NIC processing, wire, DMA, completion) as telemetry spans. Leave
	// nil — the default — for zero tracing cost.
	Trace *telemetry.Trace
}
