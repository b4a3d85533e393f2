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

// statusOf maps a served outcome onto the unified vocabulary.
func statusOf(ok bool) kv.Status {
	if ok {
		return kv.StatusHit
	}
	return kv.StatusMiss
}

// Config parameterizes a FaRM-KV deployment.
type Config struct {
	Mode Mode
	// Buckets is the hopscotch home-bucket count.
	Buckets int
	// ValueSize is the fixed inline value size (InlineMode only).
	ValueSize int
	// ExtentBytes sizes the out-of-table value extent (VarMode).
	ExtentBytes int
	// H is the hopscotch neighborhood (the paper's 6).
	H int
	// Cores is the number of server cores servicing PUTs.
	Cores int
	// Window is the per-client outstanding-op limit.
	Window int
}

// DefaultConfig returns a test-scale FaRM-em deployment.
func DefaultConfig() Config {
	return Config{
		Mode: InlineMode, Buckets: 1 << 14, ValueSize: 32,
		ExtentBytes: 1 << 24, H: hopscotch.DefaultH, Cores: 6, Window: 4,
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
	puts    uint64
}

// NewServer initializes FaRM-KV on machine m.
func NewServer(m *cluster.Machine, cfg Config) (*Server, error) {
	if cfg.Cores < 1 || cfg.Cores > m.CPU.Cores() {
		return nil, fmt.Errorf("farm: Cores=%d out of range", cfg.Cores)
	}
	if cfg.H < 1 {
		cfg.H = hopscotch.DefaultH
	}
	s := &Server{cfg: cfg, machine: m}
	switch cfg.Mode {
	case InlineMode:
		slot := kv.KeySize + cfg.ValueSize
		s.tableMR = m.Verbs.RegisterMR((cfg.Buckets + cfg.H) * slot)
		s.table = hopscotch.NewInline(s.tableMR.Bytes(), cfg.Buckets, cfg.ValueSize, cfg.H)
	case VarMode:
		s.tableMR = m.Verbs.RegisterMR((cfg.Buckets + cfg.H) * hopscotch.PtrSlotSize)
		s.extentMR = m.Verbs.RegisterMR(cfg.ExtentBytes)
		s.table = hopscotch.NewVar(s.tableMR.Bytes(), s.extentMR.Bytes(), cfg.Buckets, cfg.H)
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

type pendingPut struct {
	key      kv.Key
	issuedAt sim.Time
	cb       func(Result)
}

// Client is one FaRM-KV client.
type Client struct {
	srv     *Server
	id      int
	machine *cluster.Machine

	rcQP  *verbs.QP // GET READs
	ucQP  *verbs.QP // PUT request WRITEs
	srvUC *verbs.QP // server->client notification WRITEs

	reqMR   *verbs.MR // server-side per-client circular buffer
	respMR  *verbs.MR // client-side notification region (1 B per window slot)
	scratch *verbs.MR

	seq         int
	pendingPuts []*pendingPut
	readWaiters []func()
	cqArmed     bool
	readSeq     uint64

	inflight int
	waiting  []func()

	// vals backs GET-hit values: each is cut from a shared block and
	// handed to one callback (kv.Slab), so a hit allocates nothing.
	vals kv.Slab
}

// Client implements the shared client interface.
var _ kv.KV = (*Client)(nil)

// ConnectClient attaches a client on machine m.
func (s *Server) ConnectClient(m *cluster.Machine) (*Client, error) {
	c := &Client{srv: s, id: len(s.clients), machine: m}
	s.clients = append(s.clients, c)

	c.rcQP = m.Verbs.CreateQP(wire.RC)
	srvRC := s.machine.Verbs.CreateQP(wire.RC)
	if err := verbs.Connect(c.rcQP, srvRC); err != nil {
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
	scratchSlot := s.neighborhoodBytes() + 1024
	c.scratch = m.Verbs.RegisterMR((s.cfg.Window + 1) * scratchSlot)

	c.reqMR.Watch(0, s.cfg.Window*SlotSize, func(off, n int) { s.onPutLanded(c, off, n) })
	c.respMR.Watch(0, s.cfg.Window, func(off, n int) { c.onNotify(off) })
	return c, nil
}

func (s *Server) neighborhoodBytes() int {
	if s.cfg.Mode == InlineMode {
		return s.cfg.H * (kv.KeySize + s.cfg.ValueSize)
	}
	return s.cfg.H * hopscotch.PtrSlotSize
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
		s.puts++
		// Free the slot.
		for i := SlotSize - lenTail; i < SlotSize; i++ {
			raw[i] = 0
		}
		// Notify the client: a 1-byte WRITE (FaRM's completion path).
		mustPost(c.srvUC.PostSend(verbs.SendWR{
			Verb:      verbs.WRITE,
			Data:      []byte{status},
			Remote:    c.respMR,
			RemoteOff: slot,
			Inline:    true,
		}))
	})
}

// onNotify completes the oldest outstanding PUT (per-client order is
// preserved end to end: one UC QP, one core, one notification QP). The
// notification byte carries the outcome: 1 applied, 2 store rejection.
func (c *Client) onNotify(off int) {
	if len(c.pendingPuts) == 0 {
		return
	}
	op := c.pendingPuts[0]
	c.pendingPuts = c.pendingPuts[1:]
	ok := c.respMR.Bytes()[off] == 1
	c.finishOp()
	if op.cb != nil {
		op.cb(Result{Key: op.key, Status: statusOf(ok), Latency: c.now() - op.issuedAt})
	}
}

func (c *Client) now() sim.Time { return c.machine.Verbs.NIC().Engine().Now() }

func (c *Client) startOp(fn func()) {
	if c.inflight >= c.srv.cfg.Window {
		c.waiting = append(c.waiting, fn)
		return
	}
	c.inflight++
	fn()
}

func (c *Client) finishOp() {
	c.inflight--
	if len(c.waiting) > 0 && c.inflight < c.srv.cfg.Window {
		next := c.waiting[0]
		c.waiting = c.waiting[1:]
		c.inflight++
		next()
	}
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
	val := append([]byte(nil), value...)
	c.startOp(func() {
		slot := c.seq % c.srv.cfg.Window
		c.seq++
		payload := make([]byte, len(val)+2+kv.KeySize)
		copy(payload, val)
		binary.LittleEndian.PutUint16(payload[len(val):], uint16(len(val)))
		copy(payload[len(val)+2:], key[:])

		c.pendingPuts = append(c.pendingPuts, &pendingPut{key: key, issuedAt: c.now(), cb: cb})
		mustPost(c.ucQP.PostSend(verbs.SendWR{
			Verb:      verbs.WRITE,
			Data:      payload,
			Remote:    c.reqMR,
			RemoteOff: (slot+1)*SlotSize - len(payload),
			Inline:    len(payload) <= c.machine.Verbs.NIC().Params().InlineMax,
		}))
	})
	return nil
}

// Get READs the key's neighborhood (and, out-of-table, the value). The
// server CPU is never involved.
func (c *Client) Get(key kv.Key, cb func(Result)) error {
	if key.IsZero() {
		return kv.ErrZeroKey
	}
	c.startOp(func() { c.doGet(key, cb) })
	return nil
}

func (c *Client) doGet(key kv.Key, cb func(Result)) {
	start := c.now()
	res := Result{Key: key, IsGet: true}
	scratchSlot := c.srv.neighborhoodBytes() + 1024
	lo := (int(c.readSeq) % (c.srv.cfg.Window + 1)) * scratchSlot
	c.readSeq++

	finish := func() {
		res.Latency = c.now() - start
		if res.Status == kv.StatusUnknown {
			res.Status = kv.StatusMiss
		}
		c.finishOp()
		if cb != nil {
			cb(res)
		}
	}

	off, n := c.srv.table.NeighborhoodOffset(key)
	res.Reads++
	err := c.rcQP.PostSend(verbs.SendWR{
		Verb: verbs.READ, Remote: c.srv.tableMR, RemoteOff: off,
		Local: c.scratch, LocalOff: lo, Len: n, Signaled: true,
	})
	if err != nil {
		finish()
		return
	}
	c.awaitRead(func() {
		raw := c.scratch.Bytes()[lo : lo+n]
		if c.srv.cfg.Mode == InlineMode {
			v, ok := hopscotch.ParseNeighborhoodInline(raw, key, c.srv.cfg.ValueSize)
			if ok {
				res.Status = kv.StatusHit
				res.Value = c.vals.Copy(v)
			}
			finish()
			return
		}
		ptr, vlen, ok := ParseVar(raw, key)
		if !ok {
			finish()
			return
		}
		// Second READ for the out-of-table value.
		res.Reads++
		vlo := lo + c.srv.neighborhoodBytes()
		err := c.rcQP.PostSend(verbs.SendWR{
			Verb: verbs.READ, Remote: c.srv.extentMR, RemoteOff: int(ptr),
			Local: c.scratch, LocalOff: vlo, Len: int(vlen), Signaled: true,
		})
		if err != nil {
			finish()
			return
		}
		c.awaitRead(func() {
			res.Status = kv.StatusHit
			res.Value = c.vals.Copy(c.scratch.Bytes()[vlo : vlo+int(vlen)])
			finish()
		})
	})
}

// ParseVar is a convenience re-export for clients parsing out-of-table
// neighborhoods.
func ParseVar(raw []byte, key kv.Key) (uint32, uint16, bool) {
	return hopscotch.ParseNeighborhoodVar(raw, key)
}

func (c *Client) awaitRead(fn func()) {
	c.readWaiters = append(c.readWaiters, fn)
	if !c.cqArmed {
		c.cqArmed = true
		c.rcQP.SendCQ().SetHandler(func(verbs.Completion) {
			if len(c.readWaiters) == 0 {
				return
			}
			next := c.readWaiters[0]
			c.readWaiters = c.readWaiters[1:]
			next()
		})
	}
}

// mustPost consumes the synchronous error from a verbs post. FaRM-em
// implements no crash recovery, so any rejected post — including an
// errored queue pair — is unsupported territory: fail loudly.
func mustPost(err error) {
	if err != nil {
		panic(err)
	}
}
