// Package nic models an RDMA NIC (RNIC): its processing-unit pool, queue-
// pair context cache, and attachment to the host PCIe bus and the fabric.
//
// The verbs protocol flows themselves live in package verbs; this package
// provides the device resources those flows consume, with service times
// calibrated to ConnectX-3 (see Params).
package nic

import (
	"fmt"

	"herdkv/internal/pcie"
	"herdkv/internal/sim"
	"herdkv/internal/telemetry"
	"herdkv/internal/wire"
)

// NIC is one host's RDMA NIC.
type NIC struct {
	eng  *sim.Engine
	p    Params
	bus  *pcie.Bus
	net  *wire.Network
	node wire.NodeID

	pu      *sim.Server
	sendCtx *ContextCache
	recvCtx *ContextCache

	// Telemetry handles (nil when un-instrumented): QP-context-cache
	// hits, misses and evictions on each side, the mechanism behind
	// Figure 12's client-scaling cliff (docs/SCALABILITY.md).
	tel                        *telemetry.Sink
	telSendHit, telSendMiss    *telemetry.Counter
	telRecvHit, telRecvMiss    *telemetry.Counter
	telSendEvict, telRecvEvict *telemetry.Counter

	// Per-QP miss/evict counters, created lazily when the sink is
	// QP-scoped (Sink.PerQP): a fleet touches thousands of QP contexts
	// and most runs only want the aggregates.
	qpSendMiss, qpRecvMiss   map[uint64]*telemetry.Counter
	qpSendEvict, qpRecvEvict map[uint64]*telemetry.Counter
}

// New attaches a NIC with parameters p to bus and fabric node.
func New(eng *sim.Engine, p Params, bus *pcie.Bus, net *wire.Network, node wire.NodeID) *NIC {
	net.AddNode(node)
	return &NIC{
		eng:     eng,
		p:       p,
		bus:     bus,
		net:     net,
		node:    node,
		pu:      sim.NewServer(eng),
		sendCtx: NewContextCache(p.SendCtxCap),
		recvCtx: NewContextCache(p.RecvCtxCap),
	}
}

// Engine returns the simulation engine.
func (n *NIC) Engine() *sim.Engine { return n.eng }

// Params returns the device parameters.
func (n *NIC) Params() Params { return n.p }

// Bus returns the host PCIe bus.
func (n *NIC) Bus() *pcie.Bus { return n.bus }

// Net returns the fabric.
func (n *NIC) Net() *wire.Network { return n.net }

// Node returns this NIC's fabric address.
func (n *NIC) Node() wire.NodeID { return n.node }

// PU submits work to the processing-unit pool; done (if non-nil) runs at
// completion.
func (n *NIC) PU(work sim.Time, done func(sim.Time)) {
	n.pu.Submit(work, done)
}

// PUUtilization reports processing-unit utilization so far.
func (n *NIC) PUUtilization() float64 { return n.pu.Utilization() }

// SetTelemetry attaches context-cache hit/miss/evict counters. Counter
// names are shared across NICs, aggregating cluster-wide; with a
// QP-scoped sink each NIC additionally maintains per-QP miss and evict
// counters so the thrashing contexts are identifiable.
func (n *NIC) SetTelemetry(s *telemetry.Sink) {
	n.tel = s
	n.telSendHit = s.Counter("nic.ctxcache.send.hits")
	n.telSendMiss = s.Counter("nic.ctxcache.send.misses")
	n.telRecvHit = s.Counter("nic.ctxcache.recv.hits")
	n.telRecvMiss = s.Counter("nic.ctxcache.recv.misses")
	n.telSendEvict = s.Counter("nic.ctxcache.send.evicts")
	n.telRecvEvict = s.Counter("nic.ctxcache.recv.evicts")
	n.sendCtx.OnEvict(func(victim uint64) {
		n.telSendEvict.Inc()
		n.qpCounter(&n.qpSendEvict, "send", "evicts", victim).Inc()
	})
	n.recvCtx.OnEvict(func(victim uint64) {
		n.telRecvEvict.Inc()
		n.qpCounter(&n.qpRecvEvict, "recv", "evicts", victim).Inc()
	})
}

// qpCounter lazily resolves the per-QP context-cache counter for one
// (side, kind, QP key) triple, or nil (a no-op handle) when the sink is
// not QP-scoped. Keys are global QP keys: node<<32 | qpn.
func (n *NIC) qpCounter(m *map[uint64]*telemetry.Counter, side, kind string, key uint64) *telemetry.Counter {
	if !n.tel.QPScoped() {
		return nil
	}
	if c, ok := (*m)[key]; ok {
		return c
	}
	if *m == nil {
		*m = make(map[uint64]*telemetry.Counter)
	}
	//lint:allow telemnames — per-QP counters nic.ctxcache.<side>.qp.n<node>.q<qpn>.{misses,evicts} are catalogued in docs/OBSERVABILITY.md
	c := n.tel.Counter(fmt.Sprintf(
		"nic.ctxcache.%s.qp.n%d.q%d.%s", side, key>>32, uint32(key), kind))
	(*m)[key] = c
	return c
}

// TouchSendCtx records a requester-side context access for qpn and
// returns the PU stall and added latency it causes (zero on a hit).
func (n *NIC) TouchSendCtx(qpn uint64) (puExtra, latExtra sim.Time) {
	if n.sendCtx.Touch(qpn) {
		n.telSendHit.Inc()
		return 0, 0
	}
	n.telSendMiss.Inc()
	n.qpCounter(&n.qpSendMiss, "send", "misses", qpn).Inc()
	return n.p.CtxMissPU, n.p.CtxMissLat
}

// TouchRecvCtx records a responder-side context access for qpn and
// returns the PU stall and added latency it causes (zero on a hit).
func (n *NIC) TouchRecvCtx(qpn uint64) (puExtra, latExtra sim.Time) {
	if n.recvCtx.Touch(qpn) {
		n.telRecvHit.Inc()
		return 0, 0
	}
	n.telRecvMiss.Inc()
	n.qpCounter(&n.qpRecvMiss, "recv", "misses", qpn).Inc()
	return n.p.CtxMissPU, n.p.CtxMissLat
}

// SendCtxHitRate and RecvCtxHitRate expose cache statistics.
func (n *NIC) SendCtxHitRate() float64 { return n.sendCtx.HitRate() }
func (n *NIC) RecvCtxHitRate() float64 { return n.recvCtx.HitRate() }

// SendCtxCache and RecvCtxCache expose the context caches themselves
// (per-QP miss/evict accounting for tests and experiments).
func (n *NIC) SendCtxCache() *ContextCache { return n.sendCtx }
func (n *NIC) RecvCtxCache() *ContextCache { return n.recvCtx }

// WQEBytes returns the PIO footprint of a WQE on transport t carrying
// inline bytes of payload (zero if not inlined).
func (n *NIC) WQEBytes(t wire.Transport, inline int) int {
	base := n.p.WQEBaseRC
	if t == wire.UD {
		base = n.p.WQEBaseUD
	}
	return base + inline
}
