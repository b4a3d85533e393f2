// Package verbs is a fixture stub mirroring the posting surface of
// herdkv/internal/verbs: the analyzers match methods by name on a
// package named "verbs", so fixtures exercise them without importing
// the real model.
package verbs

import "wire"

// Verb identifies an RDMA operation type (same iota order as
// internal/verbs).
type Verb int

// The verbs of the paper's Table 1.
const (
	WRITE Verb = iota
	READ
	SEND
	RECV
)

// MR is a registered memory region.
type MR struct{ buf []byte }

// Completion describes a completed verb (the real one also carries
// At and Trace, which no analyzer reads).
type Completion struct {
	QPN     uint32
	WRID    uint64
	Verb    Verb
	Bytes   int
	Data    []byte
	SrcQPN  uint32
	Flushed bool
}

// CQ is a completion queue.
type CQ struct{}

// SetHandler delivers future completions to fn.
func (cq *CQ) SetHandler(fn func(Completion)) {}

// Host is one machine's RDMA endpoint.
type Host struct{}

// CreateQP creates a queue pair on transport t.
func (h *Host) CreateQP(t wire.Transport) *QP { return &QP{transport: t} }

// RegisterMR registers size bytes of memory.
func (h *Host) RegisterMR(size int) *MR { return &MR{buf: make([]byte, size)} }

// SendWR describes a work request for PostSend.
type SendWR struct {
	WRID      uint64
	Verb      Verb
	Data      []byte
	Remote    *MR
	RemoteOff int
	Local     *MR
	LocalOff  int
	Len       int
	Inline    bool
	Signaled  bool
	Dest      *QP
	HasImm    bool
	Imm       uint32
}

// QP is a queue pair.
type QP struct {
	transport wire.Transport
	sendCQ    CQ
	recvCQ    CQ
}

// Transport returns the QP's transport type.
func (qp *QP) Transport() wire.Transport { return qp.transport }

// SendCQ returns the send completion queue.
func (qp *QP) SendCQ() *CQ { return &qp.sendCQ }

// RecvCQ returns the receive completion queue.
func (qp *QP) RecvCQ() *CQ { return &qp.recvCQ }

// PostSend posts wr to the send queue.
func (qp *QP) PostSend(wr SendWR) error { return nil }

// PostSendBatch posts wrs with one doorbell.
func (qp *QP) PostSendBatch(wrs []SendWR) error { return nil }

// PostRecv posts a receive buffer.
func (qp *QP) PostRecv(mr *MR, off, n int, wrid uint64) error { return nil }

// Connect pairs two queue pairs on a connected transport.
func Connect(a, b *QP) error { return nil }
