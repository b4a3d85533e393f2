// Package farm implements the FaRM-KV emulations of Section 5.1.2:
// FaRM-em (values inlined in the hopscotch table; a GET is a single READ
// of 6*(SK+SV) bytes) and FaRM-em-VAR (out-of-table values; a GET READs
// 6*(SK+SP) bytes of neighborhood, then the value).
//
// PUTs follow FaRM's messaging design: the client WRITEs its request
// into a per-client circular buffer on the server (over UC, as the paper
// does for higher throughput), the server CPU polls the buffer, applies
// the insert, and notifies the client with a WRITE back — so both
// directions of a PUT are WRITEs, unlike HERD's WRITE/SEND hybrid.
package farm

import (
	"encoding/binary"
	"fmt"

	"herdkv/internal/cluster"
	"herdkv/internal/hopscotch"
	"herdkv/internal/kv"
	"herdkv/internal/readclient"
	"herdkv/internal/sim"
	"herdkv/internal/verbs"
	"herdkv/internal/wire"
)

// Mode selects the FaRM-em variant.
type Mode int

// Variants compared in the paper.
const (
	InlineMode Mode = iota // FaRM-em
	VarMode                // FaRM-em-VAR
)

// SlotSize is the PUT request slot size (1 KB items, as in HERD).
const SlotSize = 1024

const (
	keyTail = kv.KeySize
	lenTail = keyTail + 2
)

// Config parameterizes a FaRM-KV deployment.
type Config struct {
	Mode Mode
	// Buckets is the hopscotch home-bucket count.
	Buckets int
	// ValueSize is the fixed inline value size (InlineMode only).
	ValueSize int
	// ExtentBytes sizes the out-of-table value extent (VarMode).
	ExtentBytes int
	// Cores is the number of server cores servicing PUTs.
	Cores int
	// Window is the per-client outstanding-op limit.
	Window int
}

// DefaultConfig returns a test-scale FaRM-em deployment.
func DefaultConfig() Config {
	return Config{
		Mode: InlineMode, Buckets: 1 << 14, ValueSize: 32,
		ExtentBytes: 1 << 24, Cores: 6, Window: 4,
	}
}

// Server is the FaRM-KV server.
type Server struct {
	cfg      Config
	machine  *cluster.Machine
	table    *hopscotch.Table
	tableMR  *verbs.MR
	extentMR *verbs.MR

	clients []*Client
}

// NewServer initializes FaRM-KV on machine m.
func NewServer(m *cluster.Machine, cfg Config) (*Server, error) {
	if cfg.Cores < 1 || cfg.Cores > m.CPU.Cores() {
		return nil, fmt.Errorf("farm: Cores=%d out of range", cfg.Cores)
	}
	s := &Server{cfg: cfg, machine: m}
	switch cfg.Mode {
	case InlineMode:
		slot := kv.KeySize + cfg.ValueSize
		s.tableMR = m.Verbs.RegisterMR((cfg.Buckets + hopscotch.DefaultH) * slot)
		s.table = hopscotch.NewInline(s.tableMR.Bytes(), cfg.Buckets, cfg.ValueSize, hopscotch.DefaultH)
	case VarMode:
		s.tableMR = m.Verbs.RegisterMR((cfg.Buckets + hopscotch.DefaultH) * hopscotch.PtrSlotSize)
		s.extentMR = m.Verbs.RegisterMR(cfg.ExtentBytes)
		s.table = hopscotch.NewVar(s.tableMR.Bytes(), s.extentMR.Bytes(), cfg.Buckets, hopscotch.DefaultH)
	default:
		return nil, fmt.Errorf("farm: unknown mode %d", cfg.Mode)
	}
	return s, nil
}

// Insert loads a key server-side without network traffic.
func (s *Server) Insert(key kv.Key, value []byte) error {
	return s.table.Insert(key, value)
}

// Result is the outcome of one client operation — an alias of the
// unified kv.Result. Result.Reads counts READ verbs issued for a GET:
// 1 inline, 2 out-of-table.
type Result = kv.Result

// Client is one FaRM-KV client: the shared baseline core's RC QP for
// GET READs, a UC QP for PUT request WRITEs and a UC pair for the
// server's notification WRITEs.
type Client struct {
	readclient.Core
	srv *Server
	id  int

	ucQP  *verbs.QP // PUT request WRITEs
	srvUC *verbs.QP // server->client notification WRITEs

	reqMR  *verbs.MR // server-side per-client circular buffer
	respMR *verbs.MR // client-side notification region (1 B per window slot)

	seq int
}

// Client implements the shared client interface.
var _ kv.KV = (*Client)(nil)

// ConnectClient attaches a client on machine m.
func (s *Server) ConnectClient(m *cluster.Machine) (*Client, error) {
	c := &Client{srv: s, id: len(s.clients)}
	s.clients = append(s.clients, c)

	// A landing slot holds a neighborhood, or an out-of-table value.
	if err := c.Connect(m, s.machine, s.cfg.Window, s.table.NeighborhoodBytes()+1024); err != nil {
		return nil, err
	}
	c.ucQP = m.Verbs.CreateQP(wire.UC)
	srvUCin := s.machine.Verbs.CreateQP(wire.UC)
	if err := verbs.Connect(c.ucQP, srvUCin); err != nil {
		return nil, err
	}
	// Separate UC pair for server->client notifications (outbound WRITEs
	// from the server: FaRM's scaling liability, Figure 6).
	c.srvUC = s.machine.Verbs.CreateQP(wire.UC)
	cliUCresp := m.Verbs.CreateQP(wire.UC)
	if err := verbs.Connect(c.srvUC, cliUCresp); err != nil {
		return nil, err
	}

	c.reqMR = s.machine.Verbs.RegisterMR(s.cfg.Window * SlotSize)
	c.respMR = m.Verbs.RegisterMR(s.cfg.Window)

	c.reqMR.Watch(0, s.cfg.Window*SlotSize, func(off, n int) { s.onPutLanded(c, off, n) })
	// The notification byte carries the PUT's outcome: 1 applied, 2 a
	// store rejection.
	c.respMR.Watch(0, s.cfg.Window, func(off, n int) { c.Ack(c.respMR.Bytes()[off] == 1) })
	return c, nil
}

// onPutLanded polls up a PUT request from client c's circular buffer.
func (s *Server) onPutLanded(c *Client, off, n int) {
	end := off + n
	if end%SlotSize != 0 {
		return
	}
	slot := end/SlotSize - 1
	raw := c.reqMR.Bytes()[slot*SlotSize : (slot+1)*SlotSize]
	var key kv.Key
	copy(key[:], raw[SlotSize-keyTail:])
	if key.IsZero() {
		return
	}
	vlen := int(binary.LittleEndian.Uint16(raw[SlotSize-lenTail : SlotSize-keyTail]))
	value := append([]byte(nil), raw[SlotSize-lenTail-vlen:SlotSize-lenTail]...)

	// Per-client core affinity keeps each client's PUTs ordered.
	core := c.id % s.cfg.Cores
	// CPU: poll + response post; the emulated server does no
	// data-structure work on its own dime (Section 5.1), so the
	// functional insert is charged only prefetched-access time.
	p := s.machine.CPU.Params()
	service := p.PollCheck + p.PostSend + 2*p.PrefetchedAccess

	s.machine.CPU.Core(core).Submit(service, func(sim.Time) {
		status := byte(1)
		if err := s.table.Insert(key, value); err != nil {
			status = 2
		}
		// Free the slot.
		for i := SlotSize - lenTail; i < SlotSize; i++ {
			raw[i] = 0
		}
		// Notify the client: a 1-byte WRITE (FaRM's completion path).
		readclient.MustPost(c.srvUC.PostSend(verbs.SendWR{
			Verb:      verbs.WRITE,
			Data:      []byte{status},
			Remote:    c.respMR,
			RemoteOff: slot,
			Inline:    true,
		}))
	})
}

// Put WRITEs the request into the server's circular buffer and waits for
// the notification WRITE.
func (c *Client) Put(key kv.Key, value []byte, cb func(Result)) error {
	if key.IsZero() {
		return kv.ErrZeroKey
	}
	if len(value) == 0 {
		return kv.ErrEmptyValue
	}
	if c.srv.cfg.Mode == InlineMode && len(value) != c.srv.cfg.ValueSize {
		return hopscotch.ErrValueSize
	}
	if len(value) > SlotSize-int(lenTail) {
		return hopscotch.ErrValueSize
	}
	payload := make([]byte, len(value)+2+kv.KeySize)
	copy(payload, value)
	binary.LittleEndian.PutUint16(payload[len(value):], uint16(len(value)))
	copy(payload[len(value)+2:], key[:])
	c.Core.Put(key, cb, func() {
		// Per-client order is preserved end to end (one UC QP, one core,
		// one notification QP), so acks match PUTs in order.
		slot := c.seq % c.srv.cfg.Window
		c.seq++
		readclient.MustPost(c.ucQP.PostSend(verbs.SendWR{
			Verb:      verbs.WRITE,
			Data:      payload,
			Remote:    c.reqMR,
			RemoteOff: (slot+1)*SlotSize - len(payload),
			Inline:    c.Inline(len(payload)),
		}))
	})
	return nil
}

// Get READs the key's neighborhood (and, out-of-table, the value). The
// server CPU is never involved.
func (c *Client) Get(key kv.Key, cb func(Result)) error {
	return c.Core.Get(key, cb, func(g *readclient.Get) {
		off, n := c.srv.table.NeighborhoodOffset(key)
		g.Read(c.srv.tableMR, off, n, func(raw []byte) {
			if c.srv.cfg.Mode == InlineMode {
				if v, ok := hopscotch.ParseNeighborhoodInline(raw, key, c.srv.cfg.ValueSize); ok {
					g.Hit(v)
					return
				}
				g.Finish()
				return
			}
			ptr, vlen, ok := ParseVar(raw, key)
			if !ok {
				g.Finish()
				return
			}
			// Second READ for the out-of-table value.
			g.Read(c.srv.extentMR, int(ptr), int(vlen), g.Hit)
		})
	})
}

// ParseVar is a convenience re-export for clients parsing out-of-table
// neighborhoods.
func ParseVar(raw []byte, key kv.Key) (uint32, uint16, bool) {
	return hopscotch.ParseNeighborhoodVar(raw, key)
}
