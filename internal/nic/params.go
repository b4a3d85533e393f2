package nic

import "herdkv/internal/sim"

// Params calibrates the RNIC model. Processing-unit (PU) costs are
// aggregate: the real ConnectX-3 contains several parallel PUs; we model
// the pool as one FIFO resource whose per-verb service time is the
// inverse of the card's aggregate message rate for that verb.
//
// Calibration anchors, all quoted in the paper (Sections 3.2-3.3):
//
//   - inbound WRITE: ~35 Mops for <=128 B payloads   -> RxWrite ~ 27 ns
//   - inbound READ: 26 Mops                          -> RxReadReq ~ 38 ns
//   - outbound READ: 22 Mops                         -> TxReadReq+RxReadResp ~ 45 ns
//   - optimized SEND/RECV echo: 21 Mops              -> RxSend ~ 40 ns
//   - outbound WRITE >28 B payload is PIO-bound (write-combining steps)
//   - each QP supports 16 outstanding READs
//   - beyond the QP context cache capacity, each verb can miss and stall
//     on a PCIe fetch of the context (Figures 6 and 12)
type Params struct {
	// PU service times by role.
	TxWQE      sim.Time // requester processing of an outbound WRITE/SEND WQE
	TxReadReq  sim.Time // requester processing to issue a READ
	RxWrite    sim.Time // responder processing of an inbound WRITE
	RxSend     sim.Time // responder processing of an inbound SEND (includes RECV WQE handling)
	RxReadReq  sim.Time // responder processing of an inbound READ request
	RxReadResp sim.Time // requester processing of a returning READ response
	RxAck      sim.Time // requester cost to absorb an RC ACK, charged when the WRITE/SEND is issued

	// Optimization deltas (Figure 5's "basic -> +unreliable ->
	// +unsignaled -> +inlined" ladder).
	SignaledExtra sim.Time // extra PU work per signaled verb (CQE generation)
	// NonInlineExtra is the extra PU work to fetch a non-inlined payload
	// (WQE pointer chase + DMA scheduling). Calibrated to the ~11 Mops
	// flat rate of small non-inlined outbound WRITEs in Figure 4.
	NonInlineExtra sim.Time
	RCReqExtra     sim.Time // extra requester PU work per RC verb (retransmit state)
	RCRespExtra    sim.Time // extra responder PU work per inbound RC WRITE/SEND, including its ACK

	// WQE geometry for the PIO path.
	WQEBaseRC int // WQE bytes before inline payload, RC/UC transports
	WQEBaseUD int // WQE bytes before inline payload, UD (carries address handle)
	InlineMax int // maximum inline payload (256 B on ConnectX-3)
	CQEBytes  int // completion queue entry size DMA-written to host

	// ReadWindow is the per-QP cap on outstanding READs (16 on our RNICs,
	// Section 3.2.2).
	ReadWindow int

	// QP context cache (the RNIC's scarce SRAM, Section 3.3).
	SendCtxCap int      // requester-side send contexts cached
	RecvCtxCap int      // responder-side receive contexts cached
	CtxMissPU  sim.Time // PU stall charged when a context misses
	CtxMissLat sim.Time // added latency of the PCIe context fetch
}

// ConnectX3 returns parameters for a ConnectX-3-class RNIC.
func ConnectX3() Params {
	return Params{
		TxWQE:      sim.NS(8),
		TxReadReq:  sim.NS(13),
		RxWrite:    sim.NS(27),
		RxSend:     sim.NS(40),
		RxReadReq:  sim.NS(38),
		RxReadResp: sim.NS(22),
		RxAck:      sim.NS(2),

		SignaledExtra:  sim.NS(25),
		NonInlineExtra: sim.NS(80),
		RCReqExtra:     sim.NS(10),
		RCRespExtra:    sim.NS(4),

		WQEBaseRC: 36,
		WQEBaseUD: 48,
		InlineMax: 256,
		CQEBytes:  64,

		ReadWindow: 16,

		SendCtxCap: 64,
		RecvCtxCap: 280,
		CtxMissPU:  sim.NS(120),
		CtxMissLat: sim.NS(400),
	}
}
