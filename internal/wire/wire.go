// Package wire models the switched lossless fabric connecting hosts:
// per-node full-duplex links with serialization delay, a propagation +
// switching delay, and per-transport header overheads.
//
// InfiniBand and RoCE employ credit-based / priority flow control, so
// packets are never lost to congestion (Section 2.2.3); the only loss
// source is faults. A per-packet fault hook (SetFaultHook) is the one
// fault mechanism: through it internal/fault injects uniform loss,
// link blackouts, asymmetric partitions, degradation windows and
// corruption bursts, so every packet answers to one policy.
package wire

import "herdkv/internal/sim"

// Params describes the fabric.
type Params struct {
	// Gbps is each link's signaling rate in gigabits per second of
	// payload-carrying capacity.
	Gbps float64
	// PropDelay is the one-way propagation plus switch traversal delay.
	PropDelay sim.Time
	// HdrRC, HdrUC and HdrUD are per-packet header bytes by transport.
	// UD packets carry a larger header (the paper notes SEND-UD's
	// throughput drops at smaller payloads than WRITE's because of it).
	HdrRC, HdrUC, HdrUD int
	// MTU is the maximum payload per packet.
	MTU int
}

// InfiniBand56 returns parameters for the Apt cluster's 56 Gbps FDR
// InfiniBand fabric.
func InfiniBand56() Params {
	return Params{
		Gbps:      56,
		PropDelay: sim.NS(450),
		HdrRC:     36,
		HdrUC:     36,
		HdrUD:     68,
		MTU:       4096,
	}
}

// RoCE40 returns parameters for the Susitna cluster's 40 Gbps RoCE
// fabric.
func RoCE40() Params {
	return Params{
		Gbps:      40,
		PropDelay: sim.NS(550),
		HdrRC:     58, // RoCE adds Ethernet + GRH framing
		HdrUC:     58,
		HdrUD:     90,
		MTU:       4096,
	}
}

// Transport identifies the RDMA transport a packet travels on.
type Transport int

// Transport types (Section 2.2.3), plus the Dynamically Connected
// transport the paper expects from Connect-IB cards (Section 5.5): DC
// provides connected-transport verbs (including RDMA) while the NIC
// keeps only one shared responder context, so it scales like UD.
const (
	RC Transport = iota // Reliable Connection
	UC                  // Unreliable Connection
	UD                  // Unreliable Datagram
	DC                  // Dynamically Connected (Connect-IB)
)

// String returns the conventional abbreviation.
func (t Transport) String() string {
	switch t {
	case RC:
		return "RC"
	case UC:
		return "UC"
	case UD:
		return "UD"
	case DC:
		return "DC"
	}
	return "?"
}

// Header returns the per-packet header bytes for transport t. DC packets
// carry an extra DC access-key header over RC's.
func (p Params) Header(t Transport) int {
	switch t {
	case RC:
		return p.HdrRC
	case UC:
		return p.HdrUC
	case DC:
		return p.HdrRC + 12
	default:
		return p.HdrUD
	}
}

// NodeID identifies a host on the fabric.
type NodeID int

// Fate is the injected outcome of one packet transmission.
type Fate int

const (
	// FateDeliver lets the packet through intact.
	FateDeliver Fate = iota
	// FateDrop silently discards the packet (blackout, partition, or
	// probabilistic degradation — the receiver sees nothing).
	FateDrop
	// FateCorrupt delivers the packet with a damaged payload. Callers
	// that cannot surface corruption (control packets, which hardware
	// CRC-checks and discards) treat it as FateDrop.
	FateCorrupt
)

// FaultHook decides the fate of a packet src->dst sent at virtual time
// now. It runs inside the deterministic event loop, so any randomness it
// uses must come from a seeded source.
type FaultHook func(src, dst NodeID, now sim.Time) Fate

// Delivery describes one arrived packet: when its last byte landed and
// whether an injected fault corrupted it in flight.
type Delivery struct {
	At      sim.Time
	Corrupt bool
}

type port struct {
	egress  *sim.Server
	ingress *sim.Server
}

// Network is the fabric. Each node owns a full-duplex port; a packet
// serializes at the sender's egress, crosses the switch, then serializes
// at the receiver's ingress.
type Network struct {
	eng   *sim.Engine
	p     Params
	ports map[NodeID]*port
	fault FaultHook

	sent      uint64
	corrupted uint64

	free []*packet // recycled in-flight packet records
}

// packet is one packet in flight: egress serialization, then
// propagation, then ingress serialization, then delivery. It is the
// sim.Handler for all three hops, so a packet schedules its events
// without closures. At most one of deliver and ctrl is set: deliver
// sees corrupt arrivals, ctrl (the corruption-blind control path) never
// runs for them.
type packet struct {
	n       *Network
	dp      *port
	ser     sim.Time
	corrupt bool
	hop     uint8 // hops completed
	deliver func(Delivery)
	ctrl    func(sim.Time)
}

// Fire runs the packet's next hop.
//
//herd:hotpath
func (p *packet) Fire(at sim.Time) {
	p.hop++
	switch p.hop {
	case 1: // off the sender's egress link
		p.n.eng.AfterHandler(p.n.p.PropDelay, p)
	case 2: // across the switch
		p.dp.ingress.SubmitHandler(p.ser, p)
	default: // fully arrived
		deliver, ctrl, corrupt := p.deliver, p.ctrl, p.corrupt
		p.n.release(p)
		switch {
		case deliver != nil:
			deliver(Delivery{At: at, Corrupt: corrupt})
		case ctrl != nil && !corrupt:
			ctrl(at)
		}
	}
}

// packet returns a pooled record for a packet bound for port dp.
func (n *Network) packet(dp *port, ser sim.Time, corrupt bool, deliver func(Delivery), ctrl func(sim.Time)) *packet {
	var p *packet
	if k := len(n.free); k > 0 {
		p = n.free[k-1]
		n.free = n.free[:k-1]
	} else {
		p = &packet{n: n}
	}
	p.dp, p.ser, p.corrupt, p.deliver, p.ctrl = dp, ser, corrupt, deliver, ctrl
	return p
}

func (n *Network) release(p *packet) {
	p.dp, p.deliver, p.ctrl, p.hop = nil, nil, nil, 0
	n.free = append(n.free, p)
}

// NewNetwork returns an empty fabric.
func NewNetwork(eng *sim.Engine, p Params) *Network {
	return &Network{eng: eng, p: p, ports: make(map[NodeID]*port)}
}

// Params returns the fabric parameters.
func (n *Network) Params() Params { return n.p }

// SetFaultHook installs (or, with nil, removes) the per-packet fault
// policy. The hook sees every packet; without one the fabric is
// lossless.
func (n *Network) SetFaultHook(fn FaultHook) { n.fault = fn }

// Engine returns the simulation engine driving the fabric.
func (n *Network) Engine() *sim.Engine { return n.eng }

// fate is the single packet-fate decision point: the injected fault
// hook's verdict, or delivery when none is installed.
func (n *Network) fate(src, dst NodeID) Fate {
	if n.fault == nil {
		return FateDeliver
	}
	return n.fault(src, dst, n.eng.Now())
}

// AddNode attaches a node to the fabric. Adding an existing node is a
// no-op.
func (n *Network) AddNode(id NodeID) {
	if _, ok := n.ports[id]; ok {
		return
	}
	n.ports[id] = &port{
		egress:  sim.NewServer(n.eng),
		ingress: sim.NewServer(n.eng),
	}
}

func (n *Network) mustPort(id NodeID) *port {
	p, ok := n.ports[id]
	if !ok {
		panic("wire: unknown node")
	}
	return p
}

// SerializationTime returns the time to clock wireBytes onto a link.
func (n *Network) SerializationTime(wireBytes int) sim.Time {
	return sim.Time(float64(wireBytes*8) / (n.p.Gbps * 1e9) * float64(sim.Second))
}

// WireBytes returns payload plus header size for one packet on t.
func (n *Network) WireBytes(t Transport, payload int) int {
	return payload + n.p.Header(t)
}

// Sent reports packets transmitted; Corrupted reports packets
// delivered with a damaged payload.
func (n *Network) Sent() uint64      { return n.sent }
func (n *Network) Corrupted() uint64 { return n.corrupted }

// Send transmits one packet of payload bytes from src to dst over
// transport t. deliver runs when the packet has fully arrived; it is
// never called if the packet is dropped or corrupted (control-path
// semantics: hardware CRCs catch corruption and discard the packet).
func (n *Network) Send(src, dst NodeID, t Transport, payload int, deliver func(sim.Time)) {
	n.sendSegmented(src, dst, n.WireBytes(t, payload), nil, deliver)
}

// SendData transmits like Send but surfaces corruption: deliver runs
// for intact AND corrupted arrivals, with Delivery.Corrupt distinguishing
// them. Data-path verbs (UC WRITE, UD SEND) use it to land damaged
// payloads the application must reject — the paper's Section 7 point
// that unreliable transports push integrity to the application.
func (n *Network) SendData(src, dst NodeID, t Transport, payload int, deliver func(Delivery)) {
	n.sendSegmented(src, dst, n.WireBytes(t, payload), deliver, nil)
}

// SendWire transmits a packet of an explicit wire size (used for ACKs and
// other control packets). Wire sizes above MTU+header are segmented: each
// segment pays its own header and serialization, and delivery fires when
// the final segment has fully arrived. Corrupted control packets are
// discarded (never delivered).
func (n *Network) SendWire(src, dst NodeID, wireBytes int, deliver func(sim.Time)) {
	n.sendSegmented(src, dst, wireBytes, nil, deliver)
}

// sendSegmented sends one message. At most one of deliver (sees corrupt
// arrivals) and ctrl (corrupt arrivals are discarded) is set.
func (n *Network) sendSegmented(src, dst NodeID, wireBytes int, deliver func(Delivery), ctrl func(sim.Time)) {
	hdr := n.p.HdrUC // segmentation framing approximated by the UC header
	maxPkt := n.p.MTU + hdr
	if n.p.MTU <= 0 || wireBytes <= maxPkt {
		n.sendOne(src, dst, wireBytes, deliver, ctrl)
		return
	}
	// Split into segments, each with its own header. The message is
	// delivered only when every segment has arrived — a dropped segment
	// (which produces no arrival) suppresses delivery entirely, and a
	// corrupted segment taints the whole message.
	whole := deliver
	if ctrl != nil {
		whole = func(d Delivery) {
			if !d.Corrupt {
				ctrl(d.At)
			}
		}
	}
	var sizes []int
	rest := wireBytes
	for rest > maxPkt {
		sizes = append(sizes, maxPkt)
		rest = rest - maxPkt + hdr
	}
	sizes = append(sizes, rest)
	arrived := 0
	tainted := false
	for _, sz := range sizes {
		n.sendOne(src, dst, sz, func(d Delivery) {
			arrived++
			tainted = tainted || d.Corrupt
			if arrived == len(sizes) && whole != nil {
				whole(Delivery{At: d.At, Corrupt: tainted})
			}
		}, nil)
	}
}

// sendOne decides one packet's fate and, unless it is dropped, puts a
// pooled packet record on the sender's egress link.
//
//herd:hotpath
func (n *Network) sendOne(src, dst NodeID, wireBytes int, deliver func(Delivery), ctrl func(sim.Time)) {
	sp, dp := n.mustPort(src), n.mustPort(dst)
	n.sent++
	corrupt := false
	switch n.fate(src, dst) {
	case FateDrop:
		return
	case FateCorrupt:
		n.corrupted++
		corrupt = true
	}
	ser := n.SerializationTime(wireBytes)
	sp.egress.SubmitHandler(ser, n.packet(dp, ser, corrupt, deliver, ctrl))
}

// IngressUtilization reports node id's receive-link utilization.
func (n *Network) IngressUtilization(id NodeID) float64 {
	return n.mustPort(id).ingress.Utilization()
}

// EgressUtilization reports node id's transmit-link utilization.
func (n *Network) EgressUtilization(id NodeID) float64 {
	return n.mustPort(id).egress.Utilization()
}
