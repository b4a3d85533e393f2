package verbs

import (
	"fmt"

	"herdkv/internal/sim"
	"herdkv/internal/wire"
)

// sendOp is one posted work request moving through the requester-side
// pipeline: PIO (doorbell + inline WQE) -> optional payload DMA fetch ->
// NIC processing -> wire. Per-QP ordering is strict FIFO, and a QP with
// ReadWindow outstanding READs stalls (the RNIC fences its send queue),
// which is the paper's "each queue pair can only service a few
// outstanding READ requests".
//
// A WRITE or SEND keeps its record through the responder's stages too
// (NIC processing, the order gate, the payload DMA), and the record is
// the sim.Handler for every one of them, so the verb schedules exactly
// the events a closure per stage would without allocating any. Records
// come from the posting host's pool and return to it once, at the
// verb's last stage; a verb whose packet is dropped, or that meets a QP
// in the error state, leaves its record to the garbage collector.
type sendOp struct {
	qp      *QP // the posting (requester) QP
	wr      SendWR
	payload []byte // copy of wr.Data taken at post time; storage is reused
	dst     *QP
	inline  bool
	ready   bool

	stage opStage
	lat   sim.Time // context-miss latency the next gated stage waits out
	rx    []byte   // the payload as delivered (a damaged copy if corrupt)
	rb    recvBuf  // the RECV an inbound SEND or WRITE-with-immediate took

	// fire (op.Fire) and arrive are bound once per record, so passing
	// them as callbacks allocates nothing.
	fire   func(sim.Time)
	arrive func(wire.Delivery)
}

// opStage is the event a sendOp is waiting for.
type opStage uint8

const (
	stagePIO   opStage = iota // requester: doorbell + WQE PIO
	stageFetch                // requester: payload DMA fetch
	stageTxPU                 // requester: NIC processing
	stageTx                   // requester: per-QP order gate, then the wire
	stageRxPU                 // responder: NIC processing
	stageRxFin                // responder: per-QP order gate
	stageRxDMA                // responder: payload (+CQE) DMA to host memory
)

// getOp returns a pooled record with an empty payload buffer.
func (h *Host) getOp() *sendOp {
	if n := len(h.opFree); n > 0 {
		op := h.opFree[n-1]
		h.opFree = h.opFree[:n-1]
		return op
	}
	op := &sendOp{}
	op.fire = op.Fire
	op.arrive = func(d wire.Delivery) { op.dst.deliver(op, d.Corrupt) }
	return op
}

// release returns op to its posting host's pool. Nothing may reference
// op afterwards: the next post may reuse it at once.
func (op *sendOp) release() {
	h := op.qp.host
	*op = sendOp{payload: op.payload[:0], fire: op.fire, arrive: op.arrive}
	h.opFree = append(h.opFree, op)
}

// Fire runs op's next stage.
//
//herd:hotpath
func (op *sendOp) Fire(at sim.Time) {
	switch op.stage {
	case stagePIO:
		op.wr.Trace.Mark("pio", at)
		if !op.inline && len(op.payload) > 0 {
			// Payload fetched from host memory by DMA before transmit.
			op.stage = stageFetch
			op.qp.host.nic.Bus().DMARead(len(op.payload), op.fire)
			return
		}
		op.ready = true
		op.qp.pump()
	case stageFetch:
		op.wr.Trace.Mark("fetch", at)
		op.ready = true
		op.qp.pump()
	case stageTxPU:
		op.stage = stageTx
		op.qp.host.eng.AtHandler(op.qp.orderedAt(&op.qp.txGate, op.lat), op)
	case stageTx:
		op.qp.transmit(op)
	case stageRxPU:
		op.stage = stageRxFin
		op.dst.host.eng.AtHandler(op.dst.orderedAt(&op.dst.rxGate, op.lat), op)
	case stageRxFin:
		op.dst.finishInbound(op)
	case stageRxDMA:
		op.dst.landInbound(op, at)
	}
}

// PostSend posts wr to the queue pair's send queue. Validation errors
// are returned synchronously; the operation itself proceeds in virtual
// time.
func (qp *QP) PostSend(wr SendWR) error {
	op, err := qp.prepareOp(wr)
	if err != nil {
		return fmt.Errorf("verbs: %v on %v: %w", wr.Verb, qp.transport, err)
	}
	qp.opQueue.push(op)
	qp.countPost(op.wr.Verb, len(op.payload), op.inline, op.wr.Signaled)

	n := qp.host.nic
	inlineBytes := 0
	if op.inline {
		inlineBytes = len(op.payload)
	}
	op.stage = stagePIO
	n.Bus().PIOWrite(n.WQEBytes(qp.transport, inlineBytes), op.fire)
	return nil
}

// pump issues ready head-of-queue operations in order, respecting the
// READ window fence.
//
//herd:hotpath
func (qp *QP) pump() {
	if qp.errored {
		return // SetError already flushed the queue
	}
	for qp.opQueue.Len() > 0 {
		op := qp.opQueue.front()
		if !op.ready {
			return
		}
		if op.wr.Verb == READ && qp.outstandingReads >= qp.host.nic.Params().ReadWindow {
			return
		}
		qp.opQueue.pop()
		if op.wr.Verb == READ {
			qp.outstandingReads++
		}
		qp.issue(op)
	}
}

// issue runs the NIC processing for op and hands it to the wire.
//
//herd:hotpath
func (qp *QP) issue(op *sendOp) {
	n := qp.host.nic
	p := n.Params()

	puExtra, latExtra := n.TouchSendCtx(qp.globalKey())
	work := puExtra
	switch op.wr.Verb {
	case READ:
		work += p.TxReadReq
	default:
		work += p.TxWQE
	}
	if reliable(qp.transport) {
		work += p.RCReqExtra
	}
	if qp.transport == wire.DC && op.dst != qp.lastDest {
		// DC initiators re-target with an in-band connect handshake.
		work += p.DCRetargetPU
		qp.lastDest = op.dst
	}
	if !op.inline && len(op.payload) > 0 {
		work += p.NonInlineExtra
	}
	// READ completion state is integral to the verb (the response drives
	// it); SignaledExtra models the send-side CQE machinery that
	// selective signaling elides for WRITE/SEND.
	if op.wr.Signaled && op.wr.Verb != READ {
		work += p.SignaledExtra
	}

	op.lat = latExtra
	op.stage = stageTxPU
	n.PU(work, op.fire)
}

// orderedAt returns now+delay, but never earlier than the gate's
// previous time; the gate advances so per-QP order is preserved even
// when one verb stalls on a context fetch and the next does not.
func (qp *QP) orderedAt(gate *sim.Time, delay sim.Time) sim.Time {
	at := qp.host.eng.Now() + delay
	if at < *gate {
		at = *gate
	}
	*gate = at
	return at
}

func (qp *QP) transmit(op *sendOp) {
	h := qp.host
	n := h.nic
	src, dstNode := n.Node(), op.dst.host.Node()
	net := n.Net()
	op.wr.Trace.Mark("nic", h.eng.Now())

	switch op.wr.Verb {
	case WRITE, SEND:
		net.SendData(src, dstNode, qp.transport, len(op.payload), op.arrive)
		qp.localSendComplete(op)

	case READ:
		// READ requests carry only headers plus an RETH (16 B).
		dst := op.dst
		srcQP := qp
		net.SendWire(src, dstNode, net.Params().Header(qp.transport)+16, func(sim.Time) {
			dst.deliverReadRequest(srcQP, op)
		})
	}
}

// damage models an injected corruption burst on a delivered payload:
// the trailing 16 bytes (a keyhash, in HERD's slot formats) are zeroed
// and the rest is bit-flipped. The transform is deterministic so
// corrupted runs replay exactly; intact deliveries return the payload
// untouched. Applications detect the damage structurally — HERD's
// keyhash-nonzero and length checks reject such requests, and its
// response status check discards such responses.
func damage(payload []byte, corrupt bool) []byte {
	if !corrupt {
		return payload
	}
	out := make([]byte, len(payload))
	tail := len(out) - 16
	if tail < 0 {
		tail = 0
	}
	for i := 0; i < tail; i++ {
		out[i] = payload[i] ^ 0x5a
	}
	return out
}

// localSendComplete finishes the requester side of a WRITE or SEND. On
// unreliable transports the verb completes as soon as it is on the wire;
// on RC, completion waits for the responder's ACK.
func (qp *QP) localSendComplete(op *sendOp) {
	if reliable(qp.transport) {
		qp.awaitingAck.push(pendingAck{wr: op.wr, bytes: len(op.payload)})
		return
	}
	if op.wr.Signaled {
		qp.signalCompletion(op.wr, len(op.payload))
	}
}

// signalCompletion DMA-writes a CQE to host memory and pushes the
// completion to the send CQ.
func (qp *QP) signalCompletion(wr SendWR, bytes int) {
	n := qp.host.nic
	n.Bus().DMAWrite(n.Params().CQEBytes, func(at sim.Time) {
		wr.Trace.Mark("cqe", at)
		qp.host.telCompleted[wr.Verb].Inc()
		qp.sendCQ.push(Completion{
			QPN: qp.qpn, WRID: wr.WRID, Verb: wr.Verb, Bytes: bytes, At: at,
		})
	})
}

// deliver handles an inbound WRITE or SEND at the responder NIC:
// context lookup and processing, then, in per-QP order, finishInbound.
//
//herd:hotpath
func (qp *QP) deliver(op *sendOp, corrupt bool) {
	if qp.errored {
		qp.droppedSends++
		qp.host.telDropped.Inc()
		return
	}
	n := qp.host.nic
	p := n.Params()
	op.wr.Trace.Mark("wire", qp.host.eng.Now())
	op.rx = damage(op.payload, corrupt)
	puExtra, latExtra := n.TouchRecvCtx(qp.recvCtxKey())
	work := p.RxSend + puExtra
	if op.wr.Verb == WRITE {
		work = p.RxWrite + puExtra
	}
	if reliable(qp.transport) {
		work += p.RCRespExtra
	}
	op.lat = latExtra
	op.stage = stageRxPU
	n.PU(work, op.fire)
}

// finishInbound starts the DMA of an inbound WRITE or SEND into host
// memory and ACKs it on a reliable transport. A WRITE moves memory
// without the responder CPU (memory semantics) — except
// WRITE-with-immediate, which, like a SEND (channel semantics), consumes
// the head RECV and raises a completion on the recv CQ. Without a RECV
// posted, such a message is dropped whole.
//
//herd:hotpath
func (qp *QP) finishInbound(op *sendOp) {
	p := qp.host.nic.Params()
	dmaBytes := len(op.rx)
	if op.wr.Verb == SEND || op.wr.HasImm {
		rb, ok := qp.popRecv()
		if !ok {
			qp.droppedSends++
			qp.host.telDropped.Inc()
			return
		}
		op.rb = rb
		if op.wr.Verb == SEND {
			dmaBytes = min(dmaBytes, rb.len) // a SEND is cut to its RECV
		}
		dmaBytes += p.CQEBytes
	}
	op.stage = stageRxDMA
	qp.host.nic.Bus().DMAWrite(dmaBytes, op.fire)
	if reliable(qp.transport) {
		qp.sendAck(op.qp)
	}
}

// landInbound makes an inbound WRITE's or SEND's bytes visible at the
// DMA's completion time, raises the RECV completion it owes, and
// releases the verb's record.
//
//herd:hotpath
func (qp *QP) landInbound(op *sendOp, at sim.Time) {
	tr, src, rb := op.wr.Trace, op.qp, op.rb
	if op.wr.Verb == SEND {
		tr.Mark("recv", at)
		m := min(len(op.rx), rb.len)
		copy(rb.mr.buf[rb.off:rb.off+m], op.rx[:m])
		op.release()
		qp.host.telCompleted[RECV].Inc()
		qp.recvCQ.push(Completion{
			QPN: qp.qpn, WRID: rb.wrid, Verb: RECV, Bytes: m, At: at,
			Data: rb.mr.buf[rb.off : rb.off+m], SrcQPN: src.qpn,
			Trace: tr,
		})
		return
	}
	tr.Mark("dma", at)
	target, off, n := op.wr.Remote, op.wr.RemoteOff, len(op.rx)
	hasImm, imm := op.wr.HasImm, op.wr.Imm
	copy(target.buf[off:off+n], op.rx)
	op.release()
	target.landed(off, n)
	if hasImm {
		qp.host.telCompleted[RECV].Inc()
		qp.recvCQ.push(Completion{
			QPN: qp.qpn, WRID: rb.wrid, Verb: RECV,
			Bytes: n, At: at,
			SrcQPN: src.qpn, ImmDeliv: true, Imm: imm,
			Trace: tr,
		})
	}
}

// deliverReadRequest services an inbound READ at the responder NIC: a
// non-posted DMA read of the requested bytes from host memory, then the
// response packet. Again no responder CPU involvement.
func (qp *QP) deliverReadRequest(src *QP, op *sendOp) {
	if qp.errored {
		qp.droppedSends++
		qp.host.telDropped.Inc()
		return
	}
	n := qp.host.nic
	p := n.Params()
	op.wr.Trace.Mark("wire", qp.host.eng.Now())
	puExtra, latExtra := n.TouchRecvCtx(qp.recvCtxKey())
	n.PU(p.RxReadReq+puExtra, func(sim.Time) {
		qp.host.eng.At(qp.orderedAt(&qp.rxGate, latExtra), func() {
			n.Bus().DMARead(op.wr.Len, func(at sim.Time) {
				op.wr.Trace.Mark("dma", at)
				data := make([]byte, op.wr.Len)
				copy(data, op.wr.Remote.buf[op.wr.RemoteOff:op.wr.RemoteOff+op.wr.Len])
				n.Net().Send(n.Node(), src.host.Node(), qp.transport, op.wr.Len, func(sim.Time) {
					src.deliverReadResponse(op, data)
				})
			})
		})
	})
}

// deliverReadResponse lands READ data at the requester: processing, DMA
// of payload (plus CQE if signaled) into the local region, completion,
// and release of the READ window slot.
func (qp *QP) deliverReadResponse(op *sendOp, data []byte) {
	if qp.errored {
		return // the READ was flushed in error at crash time
	}
	n := qp.host.nic
	p := n.Params()
	op.wr.Trace.Mark("resp-wire", qp.host.eng.Now())
	n.PU(p.RxReadResp, func(sim.Time) {
		bytes := len(data)
		if op.wr.Signaled {
			bytes += p.CQEBytes
		}
		n.Bus().DMAWrite(bytes, func(at sim.Time) {
			op.wr.Trace.Mark("cqe", at)
			copy(op.wr.Local.buf[op.wr.LocalOff:op.wr.LocalOff+op.wr.Len], data)
			wrid, signaled := op.wr.WRID, op.wr.Signaled
			op.release()
			if signaled {
				qp.host.telCompleted[READ].Inc()
				qp.sendCQ.push(Completion{
					QPN: qp.qpn, WRID: wrid, Verb: READ, Bytes: len(data), At: at,
				})
			}
			qp.outstandingReads--
			qp.pump()
		})
	})
}

// sendAck emits an RC acknowledgement back to the requester.
func (qp *QP) sendAck(src *QP) {
	n := qp.host.nic
	p := n.Params()
	n.PU(p.TxAck, func(sim.Time) {
		n.Net().SendWire(n.Node(), src.host.Node(), n.Net().Params().HdrAck, func(sim.Time) {
			src.deliverAck()
		})
	})
}

// deliverAck completes the oldest un-ACKed RC WRITE/SEND at the
// requester (RC delivers strictly in order).
func (qp *QP) deliverAck() {
	n := qp.host.nic
	n.PU(n.Params().RxAck, func(sim.Time) {
		if qp.errored || qp.awaitingAck.Len() == 0 {
			return
		}
		pa := qp.awaitingAck.pop()
		if pa.wr.Signaled {
			qp.signalCompletion(pa.wr, pa.bytes)
		}
	})
}
