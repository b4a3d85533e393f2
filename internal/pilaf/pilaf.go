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
	"herdkv/internal/readclient"
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

// Insert loads a key server-side (warmup without network traffic).
func (s *Server) Insert(key kv.Key, value []byte) error {
	return s.table.Insert(key, value)
}

// Result is the outcome of a client operation — an alias of the
// unified kv.Result. Result.Reads counts all client-driven READs:
// every cuckoo bucket probe plus the extent fetch.
type Result = kv.Result

// Client is one Pilaf client: the shared baseline core's RC QP for
// READs, and a UC QP pair for PUT messages.
type Client struct {
	readclient.Core
	srv *Server

	ucQP  *verbs.QP // PUT SENDs
	srvUC *verbs.QP // server end of the PUT channel
	ackMR *verbs.MR // PUT ack RECV buffer
}

// Client implements the shared client interface.
var _ kv.KV = (*Client)(nil)

// landingSlot is the size of each READ landing slot: a bucket or an
// extent entry of the largest value.
const landingSlot = 2 * 1024

// ConnectClient attaches a client on machine m.
func (s *Server) ConnectClient(m *cluster.Machine) (*Client, error) {
	c := &Client{srv: s}
	if err := c.Connect(m, s.machine, s.cfg.Window, landingSlot); err != nil {
		return nil, err
	}

	c.ucQP = m.Verbs.CreateQP(wire.UC)
	c.srvUC = s.machine.Verbs.CreateQP(wire.UC)
	if err := verbs.Connect(c.ucQP, c.srvUC); err != nil {
		return nil, err
	}
	c.ackMR = m.Verbs.RegisterMR(s.cfg.Window * ackSize)

	// Server-side PUT channel: RECVs into a staging region, CPU insert,
	// SEND ack.
	stage := s.machine.Verbs.RegisterMR(s.cfg.Window * (putHdr + cuckoo.MaxValueSize))
	for w := 0; w < s.cfg.Window; w++ {
		readclient.MustPost(c.srvUC.PostRecv(stage, w*(putHdr+cuckoo.MaxValueSize), putHdr+cuckoo.MaxValueSize, uint64(w)))
	}
	c.srvUC.RecvCQ().SetHandler(func(comp verbs.Completion) { s.handlePut(c, stage, comp) })

	c.ucQP.RecvCQ().SetHandler(func(comp verbs.Completion) {
		if !comp.Flushed {
			c.Ack(len(comp.Data) >= 1 && comp.Data[0] == 1)
		}
	})
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
		}
		// Repost the consumed RECV slot.
		w := comp.WRID
		readclient.MustPost(c.srvUC.PostRecv(stage, int(w)*(putHdr+cuckoo.MaxValueSize), putHdr+cuckoo.MaxValueSize, w))
		// Ack: inlined unsignaled SEND.
		readclient.MustPost(c.srvUC.PostSend(verbs.SendWR{Verb: verbs.SEND, Data: []byte{status}, Inline: true}))
	})
}

// Put sends a PUT message (SEND over UC, inlined when small). The
// client window bounds outstanding ops so PUTs never outrun the server's
// pre-posted RECVs. Empty values are refused, as the other systems'
// clients refuse them.
func (c *Client) Put(key kv.Key, value []byte, cb func(Result)) error {
	if key.IsZero() {
		return kv.ErrZeroKey
	}
	if len(value) == 0 {
		return kv.ErrEmptyValue
	}
	if len(value) > cuckoo.MaxValueSize {
		return cuckoo.ErrValueSize
	}
	msg := make([]byte, putHdr+len(value))
	copy(msg, key[:])
	binary.LittleEndian.PutUint16(msg[kv.KeySize:], uint16(len(value)))
	copy(msg[putHdr:], value)
	c.Core.Put(key, cb, func() {
		// Post the ack RECV before the request.
		readclient.MustPost(c.ucQP.PostRecv(c.ackMR, 0, ackSize, 0))
		readclient.MustPost(c.ucQP.PostSend(verbs.SendWR{
			Verb:   verbs.SEND,
			Data:   msg,
			Inline: c.Inline(len(msg)),
		}))
	})
	return nil
}

// Get performs a client-driven GET: bucket READs until the key's
// fragment matches (or K probes fail), then an extent READ verified
// against the bucket's checksum. The server CPU does no work.
func (c *Client) Get(key kv.Key, cb func(Result)) error {
	return c.Core.Get(key, cb, func(g *readclient.Get) { c.probe(g, key, 0) })
}

// probe READs the key's next candidate bucket; a bucket whose fragment
// matches has its extent entry fetched.
func (c *Client) probe(g *readclient.Get, key kv.Key, i int) {
	if i >= cuckoo.K {
		g.Finish()
		return
	}
	idx := c.srv.table.BucketIndices(key)[i]
	g.Read(c.srv.bucketMR, c.srv.table.BucketOffset(idx), cuckoo.BucketSize, func(landed []byte) {
		b, ok := cuckoo.ParseBucket(landed)
		if !ok || b.Frag != cuckoo.Frag(key) {
			c.probe(g, key, i+1)
			return
		}
		g.Read(c.srv.extentMR, cuckoo.ExtentOffset(b.Ptr), cuckoo.EntryBytes(int(b.VLen)), func(landed []byte) {
			if v, ok := cuckoo.VerifyExtentEntry(landed, key, b); ok {
				g.Hit(v)
				return
			}
			// Checksum mismatch (torn read under a concurrent PUT):
			// continue probing, falling back to a miss.
			c.probe(g, key, i+1)
		})
	})
}
