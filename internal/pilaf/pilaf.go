// Package pilaf implements Pilaf-em-OPT (Section 5.1.1): the emulated
// Pilaf key-value store with all of HERD's RDMA optimizations applied.
//
// GETs are client-driven: the client READs candidate 32-byte cuckoo
// buckets from the server's registered memory (1.6 on average at
// Pilaf's 75% fill), parses and checksum-verifies them locally, then
// READs the value from the extent and verifies it against the bucket's
// entry checksum — the self-verifying data structures that make
// CPU-bypassing GETs safe. The server CPU is not involved in GETs.
//
// PUTs are SEND/RECV messages: the client SENDs the key-value item
// (inlined, unsignaled, over UC per the OPT variant), and the server CPU
// inserts it and SENDs back an acknowledgement. Unlike the paper's
// emulation, which returned instantly, our server performs the real
// cuckoo insertion.
package pilaf

import (
	"encoding/binary"
	"fmt"

	"herdkv/internal/cluster"
	"herdkv/internal/cuckoo"
	"herdkv/internal/kv"
	"herdkv/internal/sim"
	"herdkv/internal/verbs"
	"herdkv/internal/wire"
)

// Config parameterizes a Pilaf deployment.
type Config struct {
	// Buckets is the cuckoo table size (one slot per bucket).
	Buckets int
	// ExtentBytes sizes the value extent.
	ExtentBytes int
	// Cores is the number of server cores handling PUTs (Figure 13).
	Cores int
	// Window is the per-client outstanding-op limit.
	Window int
}

// DefaultConfig returns a test-scale deployment.
func DefaultConfig() Config {
	return Config{Buckets: 1 << 16, ExtentBytes: 1 << 24, Cores: 6, Window: 4}
}

// Request/response wire formats for PUTs.
const (
	putHdr  = kv.KeySize + 2 // key + value length
	ackSize = 1
)

// Server is the Pilaf server: a cuckoo table in RDMA-visible memory plus
// CPU cores servicing PUT messages.
type Server struct {
	cfg      Config
	machine  *cluster.Machine
	table    *cuckoo.Table
	bucketMR *verbs.MR
	extentMR *verbs.MR
	nextCore int

	puts, putErrs uint64
}

// NewServer initializes Pilaf on machine m.
func NewServer(m *cluster.Machine, cfg Config) (*Server, error) {
	if cfg.Cores < 1 || cfg.Cores > m.CPU.Cores() {
		return nil, fmt.Errorf("pilaf: Cores=%d out of range", cfg.Cores)
	}
	s := &Server{cfg: cfg, machine: m}
	s.bucketMR = m.Verbs.RegisterMR(cfg.Buckets * cuckoo.BucketSize)
	s.extentMR = m.Verbs.RegisterMR(cfg.ExtentBytes)
	s.table = cuckoo.New(s.bucketMR.Bytes(), s.extentMR.Bytes(), cfg.Buckets)
	return s, nil
}

// Puts reports served PUT-channel message counts.
func (s *Server) Puts() uint64 { return s.puts }

// Insert loads a key server-side (warmup without network traffic).
func (s *Server) Insert(key kv.Key, value []byte) error {
	return s.table.Insert(key, value)
}

// Result is the outcome of a client operation — an alias of the
// unified kv.Result. Result.Reads counts all client-driven READs:
// every cuckoo bucket probe plus the extent fetch.
type Result = kv.Result

// Client is one Pilaf client: an RC QP for READs and a UC QP pair for
// PUT messages.
type Client struct {
	srv     *Server
	machine *cluster.Machine

	rcQP  *verbs.QP // READs (RC only — Table 1)
	ucQP  *verbs.QP // PUT SENDs
	srvUC *verbs.QP // server end of the PUT channel

	scratch *verbs.MR // READ landing buffer
	ackMR   *verbs.MR // PUT ack RECV buffer

	pendingPuts []*putOp
	readSeq     uint64

	// readWaiters holds one-shot continuations matched FIFO to READ
	// completions on rcQP.
	readWaiters []func()
	cqArmed     bool

	// Window management: at most cfg.Window ops outstanding (PUTs must
	// not outrun the server's pre-posted RECVs).
	inflight int
	waiting  []func()

	// vals backs GET-hit values: each is cut from a shared block and
	// handed to one callback (kv.Slab), so a hit allocates nothing.
	vals kv.Slab
}

// Client implements the shared client interface.
var _ kv.KV = (*Client)(nil)

// startOp gates an operation on the client window; fn runs when a slot
// is free.
func (c *Client) startOp(fn func()) {
	if c.inflight >= c.srv.cfg.Window {
		c.waiting = append(c.waiting, fn)
		return
	}
	c.inflight++
	fn()
}

// finishOp releases a window slot and starts the next queued op.
func (c *Client) finishOp() {
	c.inflight--
	if len(c.waiting) > 0 && c.inflight < c.srv.cfg.Window {
		next := c.waiting[0]
		c.waiting = c.waiting[1:]
		c.inflight++
		next()
	}
}

type putOp struct {
	key      kv.Key
	issuedAt sim.Time
	cb       func(Result)
}

// ConnectClient attaches a client on machine m.
func (s *Server) ConnectClient(m *cluster.Machine) (*Client, error) {
	c := &Client{srv: s, machine: m}

	c.rcQP = m.Verbs.CreateQP(wire.RC)
	srvRC := s.machine.Verbs.CreateQP(wire.RC)
	if err := verbs.Connect(c.rcQP, srvRC); err != nil {
		return nil, err
	}

	c.ucQP = m.Verbs.CreateQP(wire.UC)
	c.srvUC = s.machine.Verbs.CreateQP(wire.UC)
	if err := verbs.Connect(c.ucQP, c.srvUC); err != nil {
		return nil, err
	}

	c.scratch = m.Verbs.RegisterMR((s.cfg.Window + 1) * 2 * 1024)
	c.ackMR = m.Verbs.RegisterMR(s.cfg.Window * ackSize)

	// Server-side PUT channel: RECVs into a staging region, CPU insert,
	// SEND ack.
	stage := s.machine.Verbs.RegisterMR(s.cfg.Window * (putHdr + cuckoo.MaxValueSize))
	for w := 0; w < s.cfg.Window; w++ {
		mustPost(c.srvUC.PostRecv(stage, w*(putHdr+cuckoo.MaxValueSize), putHdr+cuckoo.MaxValueSize, uint64(w)))
	}
	c.srvUC.RecvCQ().SetHandler(func(comp verbs.Completion) { s.handlePut(c, stage, comp) })

	c.ucQP.RecvCQ().SetHandler(func(comp verbs.Completion) { c.handleAck(comp) })
	return c, nil
}

// handlePut services one PUT message on a server core.
func (s *Server) handlePut(c *Client, stage *verbs.MR, comp verbs.Completion) {
	if comp.Flushed {
		return
	}
	data := append([]byte(nil), comp.Data...)
	core := s.nextCore % s.cfg.Cores
	s.nextCore++

	// CPU cost: poll the CQ, repost the RECV, post the ack. Matching the
	// paper's emulation (Section 5.1: the emulated systems omit
	// data-structure cost), the insertion is performed functionally but
	// charged only prefetched-access time. RECV reposting is what makes
	// Pilaf's PUT path the most core-hungry in Figure 13.
	p := s.machine.CPU.Params()
	service := p.PollCheck + p.RecvRepost + p.PostSend + 2*p.PrefetchedAccess

	s.machine.CPU.Core(core).Submit(service, func(sim.Time) {
		var key kv.Key
		copy(key[:], data[:kv.KeySize])
		vlen := int(binary.LittleEndian.Uint16(data[kv.KeySize:putHdr]))
		status := byte(1)
		if putHdr+vlen > len(data) {
			status = 0
		} else if err := s.table.Insert(key, data[putHdr:putHdr+vlen]); err != nil {
			status = 0
			s.putErrs++
		}
		s.puts++
		// Repost the consumed RECV slot.
		w := comp.WRID
		mustPost(c.srvUC.PostRecv(stage, int(w)*(putHdr+cuckoo.MaxValueSize), putHdr+cuckoo.MaxValueSize, w))
		// Ack: inlined unsignaled SEND.
		mustPost(c.srvUC.PostSend(verbs.SendWR{Verb: verbs.SEND, Data: []byte{status}, Inline: true}))
	})
}

func (c *Client) handleAck(comp verbs.Completion) {
	if comp.Flushed || len(c.pendingPuts) == 0 {
		return
	}
	op := c.pendingPuts[0]
	c.pendingPuts = c.pendingPuts[1:]
	ok := len(comp.Data) >= 1 && comp.Data[0] == 1
	c.finishOp()
	if op.cb != nil {
		status := kv.StatusMiss
		if ok {
			status = kv.StatusHit
		}
		op.cb(Result{
			Key: op.key, Status: status,
			Latency: c.now() - op.issuedAt,
		})
	}
}

func (c *Client) now() sim.Time { return c.machine.Verbs.NIC().Engine().Now() }

// Put sends a PUT message (SEND over UC, inlined when small). The
// client window bounds outstanding ops so PUTs never outrun the server's
// pre-posted RECVs. Empty values are refused, as the other systems'
// clients refuse them.
func (c *Client) Put(key kv.Key, value []byte, cb func(Result)) error {
	if key.IsZero() {
		return kv.ErrZeroKey
	}
	if len(value) == 0 {
		return fmt.Errorf("pilaf: PUT requires a non-empty value")
	}
	if len(value) > cuckoo.MaxValueSize {
		return cuckoo.ErrValueSize
	}
	val := append([]byte(nil), value...)
	c.startOp(func() {
		// Post the ack RECV before the request.
		mustPost(c.ucQP.PostRecv(c.ackMR, 0, ackSize, 0))

		msg := make([]byte, putHdr+len(val))
		copy(msg, key[:])
		binary.LittleEndian.PutUint16(msg[kv.KeySize:], uint16(len(val)))
		copy(msg[putHdr:], val)

		c.pendingPuts = append(c.pendingPuts, &putOp{key: key, issuedAt: c.now(), cb: cb})
		mustPost(c.ucQP.PostSend(verbs.SendWR{
			Verb:   verbs.SEND,
			Data:   msg,
			Inline: len(msg) <= c.machine.Verbs.NIC().Params().InlineMax,
		}))
	})
	return nil
}

// Get performs a client-driven GET: bucket READs until the key's
// fragment matches (or K probes fail), then an extent READ verified
// against the bucket's checksum. The server CPU does no work.
func (c *Client) Get(key kv.Key, cb func(Result)) error {
	if key.IsZero() {
		return kv.ErrZeroKey
	}
	c.startOp(func() { c.doGet(key, cb) })
	return nil
}

func (c *Client) doGet(key kv.Key, cb func(Result)) {
	start := c.now()
	idxs := c.srv.table.BucketIndices(key)
	frag := cuckoo.Frag(key)
	res := Result{Key: key, IsGet: true}

	probe := 0
	var tryProbe func()
	var fetchValue func(b cuckoo.Bucket)

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

	tryProbe = func() {
		if probe >= cuckoo.K {
			finish()
			return
		}
		idx := idxs[probe]
		probe++
		res.Reads++
		// Each probe lands in its own scratch slot.
		lo := (int(c.readSeq) % (c.srv.cfg.Window + 1)) * 2 * 1024
		c.readSeq++
		err := c.rcQP.PostSend(verbs.SendWR{
			Verb:      verbs.READ,
			Remote:    c.srv.bucketMR,
			RemoteOff: c.srv.table.BucketOffset(idx),
			Local:     c.scratch,
			LocalOff:  lo,
			Len:       cuckoo.BucketSize,
			Signaled:  true,
		})
		if err != nil {
			finish()
			return
		}
		c.awaitRead(func() {
			b, ok := cuckoo.ParseBucket(c.scratch.Bytes()[lo : lo+cuckoo.BucketSize])
			if !ok || b.Frag != frag {
				tryProbe()
				return
			}
			fetchValue(b)
		})
	}

	fetchValue = func(b cuckoo.Bucket) {
		res.Reads++
		n := cuckoo.EntryBytes(int(b.VLen))
		lo := (int(c.readSeq) % (c.srv.cfg.Window + 1)) * 2 * 1024
		c.readSeq++
		err := c.rcQP.PostSend(verbs.SendWR{
			Verb:      verbs.READ,
			Remote:    c.srv.extentMR,
			RemoteOff: cuckoo.ExtentOffset(b.Ptr),
			Local:     c.scratch,
			LocalOff:  lo,
			Len:       n,
			Signaled:  true,
		})
		if err != nil {
			finish()
			return
		}
		c.awaitRead(func() {
			v, ok := cuckoo.VerifyExtentEntry(c.scratch.Bytes()[lo:lo+n], key, b)
			if ok {
				res.Status = kv.StatusHit
				res.Value = c.vals.Copy(v)
				finish()
				return
			}
			// Checksum mismatch (torn read under a concurrent PUT):
			// continue probing, falling back to a miss.
			tryProbe()
		})
	}

	tryProbe()
}

// awaitRead registers a one-shot continuation for the next READ
// completion on this client's RC QP. READs on one QP complete in order,
// and each client GET issues its READs sequentially, so FIFO matching is
// exact.
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

// mustPost consumes the synchronous error from a verbs post. Pilaf-em
// implements no crash recovery, so any rejected post — including an
// errored queue pair — is unsupported territory: fail loudly.
func mustPost(err error) {
	if err != nil {
		panic(err)
	}
}
