// Package mux is the per-host endpoint/multiplexer tier: many logical
// client channels ride a small fixed pool of shared connected QP sets,
// the RDMA-as-a-service pattern RDMAvisor argues for (PAPERS.md).
//
// The problem it attacks is Figure 12's client-scaling cliff: HERD keeps
// one connected UC QP per client at the server, so past the RNIC's
// receive-context-cache capacity (~280 on ConnectX-3, internal/nic)
// every inbound request misses the QP context cache and throughput
// collapses. The endpoint consolidates that state: applications on a
// host open logical channels against the local endpoint instead of
// dialing the server themselves, and the endpoint multiplexes all
// channel traffic over its pool. Server-side connected QPs then scale
// with hosts x pool size — dozens — instead of with application clients.
//
// Mechanics (docs/SCALABILITY.md):
//
//   - Each channel has a virtual channel id (vcid). A submitted op is
//     one entry in the endpoint's host-local submission queue, headed by
//     its vcid; the endpoint's in-flight table keyed by that header
//     routes the response back to the owning channel at completion. The
//     app-to-endpoint hop is an intra-host shared-memory enqueue, unpaid
//     in the model (well under the ~2 us network RTT).
//   - The endpoint issues across channels in round-robin order, so one
//     greedy channel cannot starve the others out of the shared pool. A
//     bitmap of ready channels lets it skip idle ones without visiting
//     them: a pump reads one bitmap word per 64 channels.
//   - Channel-level flow control caps each channel at ChannelWindow
//     outstanding ops; the pool-level check respects each pooled
//     client's *effective* window, so when core's AIMD controller
//     (core.Config.AdaptiveWindow) shrinks a pooled client under busy
//     pushback, the endpoint's issue rate shrinks with it and excess
//     demand queues at the channels instead of retry-storming the wire.
//
// The endpoint is deliberately transport-agnostic: pooled clients are
// kv.KV implementations (plus an effective-window accessor), so the same
// tier multiplexes plain HERD clients and fleet sub-clients alike.
package mux

import (
	"errors"
	"math/bits"

	"herdkv/internal/cluster"
	"herdkv/internal/core"
	"herdkv/internal/kv"
	"herdkv/internal/sim"
	"herdkv/internal/telemetry"
)

// PoolClient is what the endpoint needs from a pooled transport client:
// the unified kv.KV operations, its unresolved op count, and its
// current effective request window (which core's AIMD controller may
// shrink at runtime).
type PoolClient interface {
	kv.KV
	Inflight() int
	Window() int
}

// Config parameterizes one endpoint.
type Config struct {
	// QPs is the pool size: how many connected client QP sets the
	// endpoint shares among all its channels (default 2). This — not
	// the channel count — is what the server's NIC holds context state
	// for.
	QPs int
	// ChannelWindow caps each channel's outstanding ops at the endpoint
	// (default 4, mirroring HERD's per-client window W). Submissions
	// beyond it queue in the channel until completions free slots.
	ChannelWindow int
}

func (c Config) withDefaults() Config {
	if c.QPs < 1 {
		c.QPs = 2
	}
	if c.ChannelWindow < 1 {
		c.ChannelWindow = 4
	}
	return c
}

// DefaultConfig returns the endpoint defaults: a 2-QP pool and a
// per-channel window of 4.
func DefaultConfig() Config { return Config{}.withDefaults() }

// Endpoint is one host's multiplexer: the shared pool, the open
// channels, and the round-robin issue scheduler.
type Endpoint struct {
	cfg      Config
	machine  *cluster.Machine
	eng      *sim.Engine
	pool     []PoolClient
	channels []*Channel

	rr      int // next channel to consider (fair round-robin)
	poolRR  int // next pool client to consider
	queued  int // ops waiting in channel queues, endpoint-wide
	pumping bool
	opFree  []*chanOp // recycled submission-queue entries

	// ready holds one bit per channel, set exactly when the channel has
	// queued ops and room under ChannelWindow, so pump finds the next
	// channel to issue from without visiting the idle ones.
	ready []uint64

	// rings is the unused rest of the block OpenChannel cuts each
	// channel's first queue slot from, so a channel's first submission
	// does not allocate: most channels never queue more than one op.
	rings []*chanOp

	tel          *telemetry.Sink
	telEndpoints *telemetry.Gauge
	telChannels  *telemetry.Gauge
	telQPs       *telemetry.Gauge
	telIssued    *telemetry.Counter
	telCompleted *telemetry.Counter
	telFailed    *telemetry.Counter
	telQueued    *telemetry.Gauge
	telStalls    *telemetry.Counter
	telResumes   *telemetry.Counter
	telStalled   *telemetry.Gauge
	latOp        *telemetry.Histogram
}

// New builds an endpoint on machine m over an already-connected pool.
// Most callers want Connect, which also dials the pool.
func New(m *cluster.Machine, pool []PoolClient, cfg Config) (*Endpoint, error) {
	if len(pool) == 0 {
		return nil, errors.New("mux: endpoint needs a non-empty pool")
	}
	ep := &Endpoint{
		cfg:     cfg.withDefaults(),
		machine: m,
		eng:     m.Verbs.NIC().Engine(),
		pool:    pool,
	}
	ep.tel = m.Verbs.Telemetry()
	ep.telEndpoints = ep.tel.Gauge("mux.endpoints")
	ep.telChannels = ep.tel.Gauge("mux.channels")
	ep.telQPs = ep.tel.Gauge("mux.qps")
	ep.telIssued = ep.tel.Counter("mux.ops.issued")
	ep.telCompleted = ep.tel.Counter("mux.ops.completed")
	ep.telFailed = ep.tel.Counter("mux.ops.failed")
	ep.telQueued = ep.tel.Gauge("mux.queue.depth")
	ep.telStalls = ep.tel.Counter("mux.chan.stalls")
	ep.telResumes = ep.tel.Counter("mux.chan.resumes")
	ep.telStalled = ep.tel.Gauge("mux.chan.stalled")
	ep.latOp = ep.tel.Histogram("mux.op.latency")
	ep.telEndpoints.Add(1)
	ep.telQPs.Add(int64(len(pool)))
	return ep, nil
}

// Connect builds an endpoint on machine m backed by a fresh pool of
// cfg.QPs HERD clients connected to srv. Each pooled client occupies one
// of the server's MaxClients request-region columns; the channels do not.
func Connect(srv *core.Server, m *cluster.Machine, cfg Config) (*Endpoint, error) {
	cfg = cfg.withDefaults()
	pool := make([]PoolClient, cfg.QPs)
	for i := range pool {
		c, err := srv.ConnectClient(m)
		if err != nil {
			return nil, err
		}
		pool[i] = c
	}
	return New(m, pool, cfg)
}

// OpenChannel registers a new logical client channel and returns it.
// The channel implements kv.KV; its id is the vcid heading every
// submission-queue entry the channel produces. An endpoint holds any
// number of channels, so the error is always nil.
func (ep *Endpoint) OpenChannel() (*Channel, error) {
	ch := &Channel{ep: ep, id: len(ep.channels)}
	if len(ep.rings) == 0 {
		// The block doubles with the channel count, so an endpoint's
		// rings take a logarithmic number of allocations.
		ep.rings = make([]*chanOp, max(64, len(ep.channels)))
	}
	ch.queue.Init(ep.rings[:1:1])
	ep.rings = ep.rings[1:]
	if ch.id%64 == 0 {
		ep.ready = append(ep.ready, 0)
	}
	ep.channels = append(ep.channels, ch)
	ep.telChannels.Add(1)
	return ch, nil
}

// PoolSize returns the number of pooled transport clients.
func (ep *Endpoint) PoolSize() int { return len(ep.pool) }

func (ep *Endpoint) now() sim.Time { return ep.eng.Now() }

// getOp returns a submission-queue entry from the free pool (or a fresh
// one), initialized for a new operation. The entry's completion closure
// is constructed once, on first allocation, and reused across recycles.
func (ep *Endpoint) getOp(ch *Channel, kind opKind, key kv.Key, cb func(kv.Result)) *chanOp {
	var op *chanOp
	if n := len(ep.opFree); n > 0 {
		op = ep.opFree[n-1]
		ep.opFree = ep.opFree[:n-1]
	} else {
		op = new(chanOp)
		op.done = func(r kv.Result) { op.ch.ep.complete(op.ch, op, r) }
	}
	op.ch = ch
	op.kind = kind
	op.key = key
	op.value = op.value[:0]
	op.cb = cb
	op.submitted = 0
	op.started = false
	op.trace = nil
	return op
}

// putOp recycles a resolved entry. Callers must be done with every
// field: the entry may be handed to a new operation immediately.
func (ep *Endpoint) putOp(op *chanOp) {
	op.ch = nil
	op.cb = nil
	op.trace = nil
	ep.opFree = append(ep.opFree, op)
}

// poolWithRoom returns the next pooled client with window room, in
// round-robin order, or nil when the pool is saturated. The room check
// uses the client's effective window, so a pooled client whose AIMD
// window shrank under busy pushback accepts proportionally less — the
// endpoint's composition with core's overload control.
//
//herd:hotpath
func (ep *Endpoint) poolWithRoom() PoolClient {
	for i := 0; i < len(ep.pool); i++ {
		cli := ep.pool[ep.poolRR%len(ep.pool)]
		ep.poolRR++
		if cli.Inflight() < cli.Window() {
			return cli
		}
	}
	return nil
}

// updateReady sets ch's ready bit when it has queued ops and room under
// its ChannelWindow, and clears it otherwise. Every change to a
// channel's queue length or outstanding count is followed by a call.
//
//herd:hotpath
func (ep *Endpoint) updateReady(ch *Channel) {
	bit := uint64(1) << (ch.id % 64)
	if ch.queue.Len() > 0 && ch.outstanding < ep.cfg.ChannelWindow {
		ep.ready[ch.id/64] |= bit
	} else {
		ep.ready[ch.id/64] &^= bit
	}
}

// nextReady returns the first ready channel among the first n, visiting
// them cyclically from channel from, or -1 when none is ready. Channels
// at or past n (opened by a callback during this pump) do not count.
//
//herd:hotpath
func (ep *Endpoint) nextReady(from, n int) int {
	if i := ep.nextSet(from, n); i >= 0 {
		return i
	}
	return ep.nextSet(0, from)
}

// nextSet returns the lowest ready channel in [from, limit), or -1. It
// reads the bitmap a word at a time, so its cost is O(1 + channels/64).
//
//herd:hotpath
func (ep *Endpoint) nextSet(from, limit int) int {
	if from >= limit {
		return -1
	}
	w := from / 64
	word := ep.ready[w] &^ (1<<(from%64) - 1)
	for word == 0 {
		if w++; w*64 >= limit {
			return -1
		}
		word = ep.ready[w]
	}
	if i := w*64 + bits.TrailingZeros64(word); i < limit {
		return i
	}
	return -1
}

// pump issues queued ops fairly: channels are visited round-robin, one
// issue per visit, until every channel is idle (empty queue or at its
// ChannelWindow) or the pool is saturated. Idle channels are skipped
// through the ready bitmap, but the cursor rr still advances by one per
// channel passed, exactly as a visit to each would, so the issue order
// does not depend on how the next ready channel is found. Re-entrant
// calls (a pooled client rejecting an op synchronously completes it
// mid-pump) fold into the running loop.
func (ep *Endpoint) pump() {
	if ep.pumping {
		return
	}
	ep.pumping = true
	defer func() { ep.pumping = false }()
	n := len(ep.channels)
	for {
		start := ep.rr % n
		i := ep.nextReady(start, n)
		if i < 0 {
			// Every channel is idle: a full lap of the cursor.
			ep.rr += n
			return
		}
		ep.rr += (i - start + n) % n
		cli := ep.poolWithRoom()
		if cli == nil {
			// Pool saturated. The cursor stays on this channel so it is
			// first in line when a completion re-pumps — advancing past
			// it here would cost it its turn.
			return
		}
		ep.rr++
		ep.issue(ep.channels[i], cli)
	}
}

// issue pops the head of ch's queue and hands it to cli. The op's vcid
// header moves from the submission queue to the in-flight table — here,
// the completion closure carrying (ch, op) — which demuxes the response
// back to the owning channel.
func (ep *Endpoint) issue(ch *Channel, cli PoolClient) {
	op := ch.queue.Pop()
	ep.queued--
	ep.telQueued.Add(-1)
	if ch.stalled && ch.queue.Len() == 0 {
		ch.stalled = false
		ep.telResumes.Inc()
		ep.telStalled.Add(-1)
	}
	op.trace.Mark("mux.resume", ep.now())
	op.started = true
	ch.outstanding++
	ep.updateReady(ch)
	ep.telIssued.Inc()

	var err error
	if op.kind == opPut {
		err = cli.Put(op.key, op.value, op.done)
	} else {
		err = cli.Get(op.key, op.done)
	}
	if err != nil {
		// Synchronous rejection: resolve the op as failed so its
		// channel slot frees and the caller hears back (mirrors
		// fleet.Client).
		ep.complete(ch, op, kv.Result{
			Key: op.key, IsGet: op.kind == opGet, Status: kv.StatusTimeout, Err: err,
		})
	}
}

// complete demuxes one resolved op back to its owning channel: the
// channel's slot frees, endpoint counters advance, latency is re-based
// to the channel's submission time (queueing included), and the
// scheduler runs before the callback so closed-loop channels keep the
// pipe full.
func (ep *Endpoint) complete(ch *Channel, op *chanOp, r kv.Result) {
	ch.outstanding--
	ep.updateReady(ch)
	r.Latency = ep.now() - op.submitted
	if r.Err == nil {
		ep.telCompleted.Inc()
		ep.latOp.RecordTime(r.Latency)
	} else {
		ep.telFailed.Inc()
	}
	ep.pump()
	if op.cb != nil {
		op.cb(r)
	}
	ep.putOp(op)
}

// submit accepts one channel op into the endpoint: enqueue, try to
// issue, and record a stall if the op could not go out immediately.
func (ep *Endpoint) submit(ch *Channel, op *chanOp) {
	op.submitted = ep.now()
	ch.queue.Push(op)
	ep.updateReady(ch)
	ep.queued++
	ep.telQueued.Add(1)
	ep.pump()
	if !op.started {
		// The op is still queued: channel window full or pool saturated.
		if !ch.stalled {
			ch.stalled = true
			ep.telStalls.Inc()
			ep.telStalled.Add(1)
		}
		if ep.tel.Tracing() {
			op.trace = ep.tel.StartTrace(op.kind.kindName(), op.submitted)
			op.trace.Mark("mux.stall", op.submitted)
		}
	}
}

// kindName returns the trace name for an operation kind.
//
//herd:hotpath
func (k opKind) kindName() string {
	if k == opPut {
		return "PUT"
	}
	return "GET"
}
