package verbs

import "herdkv/internal/fifo"

// SRQ is a shared receive queue: many QPs draw their RECVs from one
// pool, so a server with hundreds of SEND-based connections provisions
// one buffer pool instead of per-QP pools. (Our SEND/SEND HERD mode
// gets the same effect with per-process UD QPs; SRQ completes the
// substrate for RC/UC SEND servers.)
type SRQ struct {
	host  *Host
	queue fifo.Queue[recvBuf]
}

// CreateSRQ returns an empty shared receive queue on h.
func (h *Host) CreateSRQ() *SRQ { return &SRQ{host: h} }

// PostRecv posts a receive buffer to the shared queue.
func (s *SRQ) PostRecv(mr *MR, off, n int, wrid uint64) error {
	if off < 0 || n < 0 || off+n > len(mr.buf) {
		return ErrBounds
	}
	s.queue.Push(recvBuf{mr: mr, off: off, len: n, wrid: wrid})
	return nil
}

// Len reports posted RECVs.
func (s *SRQ) Len() int { return s.queue.Len() }

// AttachSRQ makes qp consume RECVs from s instead of its own receive
// queue. Completions still arrive on the QP's recv CQ. A QP must be
// attached before SENDs arrive and cannot mix attached and per-QP RECVs.
func (qp *QP) AttachSRQ(s *SRQ) { qp.srq = s }

// popRecv takes the next RECV for an inbound SEND, honoring SRQ
// attachment.
func (qp *QP) popRecv() (recvBuf, bool) {
	q := &qp.recvQueue
	if qp.srq != nil {
		q = &qp.srq.queue
	}
	if q.Len() == 0 {
		return recvBuf{}, false
	}
	return q.Pop(), true
}
