package verbs

import (
	"encoding/binary"

	"herdkv/internal/sim"
	"herdkv/internal/wire"
)

// RDMA atomics: 8-byte compare-and-swap and fetch-and-add on remote
// memory, RC (and DC) only. Atomics are one-sided like READs but force
// a read-modify-write at the responder NIC, which serializes them on an
// internal unit — the reason real RNICs sustain only a few Mops of
// atomics and why HERD-style designs avoid them. The model charges
// RxAtomic per operation on a dedicated serializing resource.

// AtomicKind selects the atomic operation.
type AtomicKind int

// Atomic operations.
const (
	CompareSwap AtomicKind = iota
	FetchAdd
)

// AtomicWR describes an atomic work request: an 8-byte operation on
// Remote[RemoteOff:+8], with the ORIGINAL value written to
// Local[LocalOff:+8] on completion (always signaled — the fetched value
// is the point).
type AtomicWR struct {
	WRID      uint64
	Kind      AtomicKind
	Remote    *MR
	RemoteOff int
	Local     *MR
	LocalOff  int

	// CompareSwap: if Remote == Compare then Remote = Swap.
	Compare uint64
	Swap    uint64
	// FetchAdd: Remote += Add.
	Add uint64

	// Dest is required on DC.
	Dest *QP
}

// PostAtomic posts an atomic operation. Supported on RC and DC
// transports only (like READ, the responder must acknowledge).
func (qp *QP) PostAtomic(wr AtomicWR) error {
	if qp.errored {
		return ErrQPState
	}
	if qp.transport != wire.RC && qp.transport != wire.DC {
		return ErrVerbNotSupported
	}
	var dst *QP
	if qp.transport == wire.DC {
		if wr.Dest == nil {
			return ErrNoDestination
		}
		dst = wr.Dest
	} else {
		if qp.remote == nil {
			return ErrNotConnected
		}
		dst = qp.remote
	}
	if wr.Remote == nil || wr.RemoteOff < 0 || wr.RemoteOff+8 > wr.Remote.Len() {
		return ErrBounds
	}
	if wr.Local == nil || wr.LocalOff < 0 || wr.LocalOff+8 > wr.Local.Len() {
		return ErrBounds
	}

	n := qp.host.nic
	p := n.Params()
	// Atomics are always signaled (the fetched value is the point).
	qp.countPost(ATOMIC, 0, false, true)
	// Request: doorbell-only PIO, then the usual requester processing.
	n.Bus().PIOWrite(n.WQEBytes(qp.transport, 0), func(sim.Time) {
		puExtra, latExtra := n.TouchSendCtx(qp.globalKey())
		n.PU(p.TxReadReq+p.RCReqExtra+puExtra, func(sim.Time) {
			qp.host.eng.At(qp.orderedAt(&qp.txGate, latExtra), func() {
				// Atomic request carries a 28 B ATOMICETH.
				n.Net().SendWire(n.Node(), dst.host.Node(),
					n.Net().Params().Header(qp.transport)+28, func(sim.Time) {
						dst.deliverAtomic(qp, wr)
					})
			})
		})
	})
	return nil
}

// deliverAtomic executes the read-modify-write at the responder NIC.
// Atomics serialize on the NIC's atomic unit (modeled inside the PU with
// a hefty per-op cost) and require a non-posted DMA round trip.
func (qp *QP) deliverAtomic(src *QP, wr AtomicWR) {
	if qp.errored {
		qp.droppedSends++
		qp.host.telDropped.Inc()
		return
	}
	n := qp.host.nic
	p := n.Params()
	puExtra, latExtra := n.TouchRecvCtx(qp.recvCtxKey())
	n.PU(p.RxAtomic+puExtra, func(sim.Time) {
		qp.host.eng.At(qp.orderedAt(&qp.rxGate, latExtra), func() {
			n.Bus().DMARead(8, func(sim.Time) {
				// Read-modify-write, atomic within this event.
				buf := wr.Remote.buf[wr.RemoteOff : wr.RemoteOff+8]
				old := binary.LittleEndian.Uint64(buf)
				switch wr.Kind {
				case CompareSwap:
					if old == wr.Compare {
						binary.LittleEndian.PutUint64(buf, wr.Swap)
					}
				case FetchAdd:
					binary.LittleEndian.PutUint64(buf, old+wr.Add)
				}
				n.Bus().DMAWrite(8, func(sim.Time) {
					// Response carries the original value.
					n.Net().SendWire(n.Node(), src.host.Node(),
						n.Net().Params().Header(qp.transport)+8, func(sim.Time) {
							src.deliverAtomicResponse(wr, old)
						})
				})
			})
		})
	})
}

// deliverAtomicResponse lands the fetched value and completes.
func (qp *QP) deliverAtomicResponse(wr AtomicWR, old uint64) {
	if qp.errored {
		return // the atomic was flushed in error at crash time
	}
	n := qp.host.nic
	p := n.Params()
	n.PU(p.RxReadResp, func(sim.Time) {
		n.Bus().DMAWrite(8+p.CQEBytes, func(at sim.Time) {
			binary.LittleEndian.PutUint64(wr.Local.buf[wr.LocalOff:wr.LocalOff+8], old)
			qp.host.telCompleted[ATOMIC].Inc()
			qp.sendCQ.push(Completion{
				QPN: qp.qpn, WRID: wr.WRID, Verb: ATOMIC, Bytes: 8, At: at,
			})
		})
	})
}
