package fleet

import (
	"errors"

	"herdkv/internal/cluster"
	"herdkv/internal/kv"
	"herdkv/internal/mica"
	"herdkv/internal/sim"
	"herdkv/internal/telemetry"
)

// ErrValueTooLarge mirrors the backing cache's value bound at the fleet
// client, so a fan-out write is rejected before any replica sees it.
// In versioned mode the bound shrinks by kv.VersionPrefixLen — the
// stamp travels inside the stored value.
var ErrValueTooLarge = errors.New("fleet: value exceeds maximum size")

// ErrEmptyValue rejects a PUT with no value at the fleet client, as
// every member server's client does: were it fanned out, each replica
// would refuse it and the fleet would suspect healthy shards.
var ErrEmptyValue = errors.New("fleet: PUT requires a non-empty value")

// ErrPartialWrite reports a versioned write that some replicas applied
// and others did not: the fleet is divergent on this key until repair
// reconciles it, so the operation fails (the write may still become
// visible — callers must treat it as indeterminate, not as a rollback).
var ErrPartialWrite = errors.New("fleet: write applied on only part of the replica set")

// Client is one application host's handle on the fleet. It implements
// the kv.KV client interface on top of one HERD sub-client per shard:
//
//   - First-ack reads go primary-first and fail over to the remaining
//     replicas when a sub-operation ends in core.ErrTimedOut, re-arming
//     the full retry budget against each replica in turn.
//   - Versioned reads are read-one/write-all: a GET asks the key's
//     primary alone, and asks every replica when the primary misses or
//     fails, when this client suspects it, while a replica is down or
//     any shard is catching up, or while the key is queued for
//     reconciliation.
//   - Writes fan out to every replica and succeed when at least one
//     replica acknowledges (every replica, in a versioned fleet).
//   - A shard whose operation failed terminally is suspected for
//     a fixed probation of virtual time: reads prefer other replicas
//     until the probation lapses.
//
// Counters: Inflight/Failed are fleet-level — an operation counts as
// Failed only when every replica in its set failed. Per-shard herd.*
// metrics keep counting underneath.
type Client struct {
	d       *Deployment
	machine *cluster.Machine
	subs    []kv.KV    // indexed by shard id
	suspect []sim.Time // per shard id: avoid reads until this time

	failed   uint64
	inflight int

	reroutes     uint64
	replicaReads uint64
	suspected    uint64

	// The versioned write-stamp generator: verID breaks same-instant
	// ties between clients, verSeq between this client's own writes.
	verID  uint64
	verSeq uint64

	// opFree pools the records of in-flight operations (see op);
	// repairAck is onRepairAck bound once, the callback of every
	// read-repair back-fill.
	opFree    []*op
	repairAck func(kv.Result)

	partialWrites uint64
	staleObserved uint64
	repairIssued  uint64
	repairApplied uint64

	telIssued    *telemetry.Counter
	telCompleted *telemetry.Counter
	telFailed    *telemetry.Counter
	telReroutes  *telemetry.Counter
	telReplica   *telemetry.Counter
	telFanout    *telemetry.Counter
	telSuspected *telemetry.Counter

	telPartial       *telemetry.Counter
	telStaleObserved *telemetry.Counter
	telRepairIssued  *telemetry.Counter
	telRepairApplied *telemetry.Counter
}

var _ kv.KV = (*Client)(nil)

// ConnectClient attaches machine m to every shard and returns the
// fleet client.
func (d *Deployment) ConnectClient(m *cluster.Machine) (*Client, error) {
	c := &Client{
		d:       d,
		machine: m,
		subs:    make([]kv.KV, len(d.shards)),
		suspect: make([]sim.Time, len(d.shards)),
	}
	tel := m.Verbs.Telemetry()
	c.telIssued = tel.Counter("fleet.ops.issued")
	c.telCompleted = tel.Counter("fleet.ops.completed")
	c.telFailed = tel.Counter("fleet.ops.failed")
	c.telReroutes = tel.Counter("fleet.reroutes")
	c.telReplica = tel.Counter("fleet.reads.replica")
	c.telFanout = tel.Counter("fleet.writes.fanout")
	c.telSuspected = tel.Counter("fleet.suspected")
	c.telPartial = tel.Counter("fleet.writes.partial")
	c.telStaleObserved = tel.Counter("fleet.repair.stale")
	c.telRepairIssued = tel.Counter("fleet.repair.issued")
	c.telRepairApplied = tel.Counter("fleet.repair.applied")
	c.verID = uint64(len(d.clients))
	c.repairAck = c.onRepairAck
	for _, sh := range d.shards {
		sub, err := sh.srv.ConnectClient(m)
		if err != nil {
			return nil, err
		}
		c.subs[sh.id] = sub
	}
	d.clients = append(d.clients, c)
	return c, nil
}

//herd:hotpath
func (c *Client) now() sim.Time { return c.machine.Verbs.NIC().Engine().Now() }

// Inflight returns the number of fleet-level operations in flight.
func (c *Client) Inflight() int { return c.inflight }

// Failed returns fleet-level failures: operations for which every
// replica in the set failed terminally.
func (c *Client) Failed() uint64 { return c.failed }

// Reroutes counts read failovers: a sub-operation failed terminally and
// the read was reissued against the next replica (against every
// remaining replica, for a versioned read asked of one).
func (c *Client) Reroutes() uint64 { return c.reroutes }

// ReplicaReads counts reads served by a non-primary replica.
func (c *Client) ReplicaReads() uint64 { return c.replicaReads }

// Suspected counts probation starts: terminal failures against a
// shard. Busy pushback never reaches the fleet: the member client
// absorbs it with hinted resubmits.
func (c *Client) Suspected() uint64 { return c.suspected }

// HotWidened always reads 0: the fleet no longer widens hot reads. It
// stays only for existing callers, and leaves with the next benchmark
// change.
func (c *Client) HotWidened() uint64 { return 0 }

// PartialWrites counts writes that some replicas applied and others
// did not — in legacy mode a silent divergence (the op still reports
// success), in versioned mode a failed op with ErrPartialWrite.
func (c *Client) PartialWrites() uint64 { return c.partialWrites }

// StaleObserved counts replicas a versioned read round caught behind
// the winning version (each is back-filled inline).
func (c *Client) StaleObserved() uint64 { return c.staleObserved }

// RepairsIssued and RepairsApplied count read-repair back-fills sent to
// lagging replicas and those the replica acknowledged.
func (c *Client) RepairsIssued() uint64  { return c.repairIssued }
func (c *Client) RepairsApplied() uint64 { return c.repairApplied }

// markSuspect starts a read probation for shard id after a terminal
// failure against it.
//
//herd:hotpath
func (c *Client) markSuspect(id int) {
	c.suspect[id] = c.now() + probation
	c.suspected++
	c.telSuspected.Inc()
}

// readPreferred reports whether shard id should be in the front tier
// of a read order: it is not under probation.
//
//herd:hotpath
func (c *Client) readPreferred(id int, now sim.Time) bool {
	return c.suspect[id] <= now
}

// readOrder writes key's replica set, reordered for a read, into dst
// and returns it: healthy replicas first (ring order preserved within
// each group), then probationed ones — so a recently failed primary is
// tried last instead of eating a full retry budget per read.
//
//herd:hotpath
func (c *Client) readOrder(dst, reps []int) []int {
	now := c.now()
	dst = dst[:0]
	for _, id := range reps {
		if c.readPreferred(id, now) {
			dst = append(dst, id)
		}
	}
	front := len(dst)
	for _, id := range reps {
		if !c.readPreferred(id, now) {
			dst = append(dst, id)
		}
	}
	// The back tier is NOT ring order: when every replica is suspect,
	// ring order could try a shard that failed moments ago before one
	// whose probation is about to lapse. Sort by probation expiry, with
	// the shard id as a deterministic tie-break
	// so replays are stable when several replicas were suspected at the
	// same instant. (An insertion sort: the tier holds at most R ids.)
	tail := dst[front:]
	for i := 1; i < len(tail); i++ {
		for j := i; j > 0 && c.triesBefore(tail[j], tail[j-1]); j-- {
			tail[j], tail[j-1] = tail[j-1], tail[j]
		}
	}
	return dst
}

// triesBefore orders the back tier of a read order: earlier probation
// expiry first, then lower shard id.
//
//herd:hotpath
func (c *Client) triesBefore(a, b int) bool {
	if c.suspect[a] != c.suspect[b] {
		return c.suspect[a] < c.suspect[b]
	}
	return a < b
}

//herd:hotpath
func (c *Client) start() {
	c.inflight++
	c.telIssued.Inc()
}

//herd:hotpath
func (c *Client) finish(cb func(kv.Result), res kv.Result, begun sim.Time) {
	res.Latency = c.now() - begun
	c.inflight--
	if res.Err == nil {
		c.telCompleted.Inc()
	} else {
		c.failed++
		c.telFailed.Inc()
	}
	if cb != nil {
		cb(res)
	}
}

// opKind is the path a fleet-level operation takes.
type opKind uint8

const (
	opGet          opKind = iota // first-ack read: primary-first with failover
	opWrite                      // fan-out write (stamped in a versioned fleet)
	opGetVersioned               // versioned read: the primary, every replica on a miss or error
)

// op is one fleet-level operation in flight. Ops are pooled per
// Client, and each carries one callback per sub-operation slot, bound
// on first use and kept across recycling (as mux.Endpoint.getOp does),
// so issuing a read or write allocates nothing once the pool is warm.
// A fan-out's slot i is the replica reps[i]; a first-ack read's slot i
// is its i-th try, order[i]. An op returns to the pool exactly once:
// when its last sub-operation resolves, just before the caller's
// callback runs.
type op struct {
	c     *Client
	kind  opKind
	key   kv.Key
	cb    func(kv.Result)
	begun sim.Time

	// reps is the key's replica set, a shared read-only ring slice
	// (Ring.Replicas); order is a first-ack read's try order, in a
	// buffer the op owns.
	reps  []int
	order []int

	outstanding, failures int
	have                  bool      // fan-outs: best holds a served result
	solo                  bool      // versioned reads: one replica asked so far
	best                  kv.Result // fan-outs: the result to report
	lastErr               kv.Result

	// Versioned writes send every replica stored — stamp then value, in
	// a buffer the op owns (sub-clients copy a PUT's value before
	// returning). Versioned reads collect each replica's answer, in
	// arrival order.
	stored []byte
	states []replicaRank

	slots []func(kv.Result)
}

// getOp returns a pooled op (or a fresh one) set up for a new
// operation.
//
//herd:hotpath
func (c *Client) getOp(kind opKind, key kv.Key, cb func(kv.Result)) *op {
	var o *op
	if n := len(c.opFree); n > 0 {
		o = c.opFree[n-1]
		c.opFree = c.opFree[:n-1]
	} else {
		o = &op{c: c} //lint:allow hotalloc — pool miss; the pool grows to the ops in flight
	}
	o.kind, o.key, o.cb = kind, key, cb
	return o
}

// slot returns the callback that resolves sub-operation slot i.
//
//herd:hotpath
func (o *op) slot(i int) func(kv.Result) {
	for len(o.slots) <= i {
		j := len(o.slots)
		//lint:allow hotalloc — bound once per slot, kept across recycling
		o.slots = append(o.slots, func(r kv.Result) { o.resolve(j, r) })
	}
	return o.slots[i]
}

// finish returns o to the pool and resolves the fleet-level operation
// with res. Nothing may touch o afterwards: the caller's callback may
// start a new operation on it at once.
//
//herd:hotpath
func (o *op) finish(res kv.Result) {
	c, cb, begun := o.c, o.cb, o.begun
	clear(o.states) // drop the replicas' value slices
	*o = op{c: c, order: o.order[:0], stored: o.stored[:0], states: o.states[:0], slots: o.slots}
	c.opFree = append(c.opFree, o)
	c.finish(cb, res, begun)
}

// resolve handles sub-operation slot i's result.
//
//herd:hotpath
func (o *op) resolve(i int, r kv.Result) {
	switch o.kind {
	case opGet:
		o.resolveGet(i, r)
	case opWrite:
		o.resolveWrite(i, r)
	default:
		o.resolveGetVersioned(i, r)
	}
}

// Get reads key: primary-first with failover across the replica set in
// legacy mode, read-one with version arbitration and read repair on a
// fan-out in versioned mode (getVersioned).
//
//herd:hotpath
func (c *Client) Get(key kv.Key, cb func(kv.Result)) error {
	if key.IsZero() {
		return mica.ErrZeroKey
	}
	reps := c.d.Replicas(key)
	if len(reps) == 0 {
		return ErrNoShards
	}
	if c.d.cfg.Versioned {
		return c.getVersioned(key, reps, cb)
	}
	o := c.getOp(opGet, key, cb)
	o.reps = reps
	o.order = c.readOrder(o.order, reps)
	c.start()
	o.begun = c.now()
	c.tryGet(o, 0)
	return nil
}

// tryGet issues a first-ack read against o.order[i]; a terminal error
// fails over to order[i+1]. Each attempt is a fresh sub-operation with
// the full retry budget.
//
//herd:hotpath
func (c *Client) tryGet(o *op, i int) {
	id := o.order[i]
	if err := c.subs[id].Get(o.key, o.slot(i)); err != nil {
		// Sub-client validation errors surface asynchronously as a
		// fleet failure so accounting stays balanced.
		o.finish(kv.Result{Key: o.key, IsGet: true, Status: kv.StatusTimeout, Err: err})
	}
}

// resolveGet handles a first-ack read's try i.
//
//herd:hotpath
func (o *op) resolveGet(i int, r kv.Result) {
	c, id := o.c, o.order[i]
	if r.Err == nil {
		if id != o.reps[0] {
			c.replicaReads++
			c.telReplica.Inc()
		}
		o.finish(r)
		return
	}
	c.markSuspect(id)
	if i+1 < len(o.order) {
		c.reroutes++
		c.telReroutes.Inc()
		c.tryGet(o, i+1)
		return
	}
	r.Err = ErrAllReplicasDown
	o.finish(r)
}

// Put writes key to every replica in its set. A first-ack fleet sends
// the value as it is and succeeds when at least one replica
// acknowledges. A versioned fleet stamps the value with a fresh (epoch,
// seq) version and succeeds only when every replica acks: a mixed
// outcome is a partial write (divergence), which fails the op with
// ErrPartialWrite and hands the key to the reconciliation queue. The
// reported Result is the first successful replica's, with fleet-level
// latency (time to the last replica's resolution, since that is when
// the outcome is known).
//
//herd:hotpath
func (c *Client) Put(key kv.Key, value []byte, cb func(kv.Result)) error {
	if key.IsZero() {
		return mica.ErrZeroKey
	}
	limit := mica.MaxValueSize
	if c.d.cfg.Versioned {
		limit -= kv.VersionPrefixLen
	}
	if len(value) > limit {
		return ErrValueTooLarge
	}
	if len(value) == 0 {
		return ErrEmptyValue
	}
	reps := c.d.Replicas(key)
	if len(reps) == 0 {
		return ErrNoShards
	}
	o := c.getOp(opWrite, key, cb)
	if c.d.cfg.Versioned {
		c.verSeq++
		stamp := kv.Version{Epoch: int64(c.now()), Seq: c.verSeq<<16 | c.verID&0xffff}
		o.stored = append(kv.AppendVersion(o.stored, stamp, false), value...)
		value = o.stored
	}
	o.reps, o.outstanding = reps, len(reps)
	c.start()
	c.telFanout.Inc()
	o.begun = c.now()
	// The last replica's callback may run inside its call and finish o;
	// the loop reads only locals after each call.
	for i, id := range reps {
		done := o.slot(i)
		if err := c.subs[id].Put(key, value, done); err != nil {
			done(kv.Result{Key: key, Status: kv.StatusTimeout, Err: err})
		}
	}
	return nil
}

// resolveWrite handles a write's replica slot i.
//
//herd:hotpath
func (o *op) resolveWrite(i int, r kv.Result) {
	c, id := o.c, o.reps[i]
	o.outstanding--
	if r.Err == nil {
		if !o.have {
			o.best, o.have = r, true
		}
	} else {
		c.markSuspect(id)
		o.failures++
		o.lastErr = r
	}
	if o.outstanding != 0 {
		return
	}
	if !o.have {
		o.lastErr.Err = ErrAllReplicasDown
		o.finish(o.lastErr)
		return
	}
	res := o.best
	if o.failures > 0 {
		// A straggler missed the write, so the replica set is now
		// divergent on this key. First-ack semantics swallow it (the op
		// succeeds); a versioned fleet fails the op and queues the key
		// for repair.
		c.partialWrites++
		c.telPartial.Inc()
		if c.d.cfg.Versioned {
			c.d.EnqueueRepair(o.key) //lint:allow hotalloc — divergence only; the anti-entropy queue
			res.Err = ErrPartialWrite
		}
	}
	o.finish(res)
}

// getVersioned is the versioned read path, read-one/write-all. It asks
// the key's primary alone when this client does not suspect it and the
// deployment allows it (soloReadable), and takes a hit as the answer.
// Every completed write was acked by every replica and each server
// applies writes in stamp order, so such a primary holds the newest
// completed version of every key it has not lost: an eviction reads as
// a miss, and a crash leaves the shard down and then catching up, which
// turns every read to read-all. A miss, an error or a timeout asks the
// remaining replicas; otherwise the read asks every replica at once. A
// fanned-out read ranks the answers as the reconciliation merge does
// and answers with the winner's payload (an absent winner is a miss).
// Replicas ranked below the winner are counted stale and back-filled
// inline with the winning bytes; the member server's ordered apply
// makes a repair racing a fresher write harmless.
//
//herd:hotpath
func (c *Client) getVersioned(key kv.Key, reps []int, cb func(kv.Result)) error {
	o := c.getOp(opGetVersioned, key, cb)
	o.reps = reps
	c.start()
	o.begun = c.now()
	if c.readPreferred(reps[0], o.begun) && c.d.soloReadable(key, reps) {
		o.solo, o.outstanding = true, 1
		c.ask(o, 0, 1)
		return nil
	}
	o.outstanding = len(reps)
	c.ask(o, 0, len(reps))
	return nil
}

// soloReadable reports whether a versioned read of key may ask its
// primary alone: no replica of key is down, no shard is catching up
// after a restart, and key is not waiting for reconciliation. A catch-up
// and a queued key are the two ways a primary can be behind another
// replica — a restart that lost a group-commit window (its catch-up may
// miss a key whose other holder was itself down, so every shard's
// catch-up counts), and a partial write or a read that saw divergence —
// and each lasts until the reconciliation merge has run, so every
// client agrees when a key goes back to read-one. A down replica is
// asked because a client learns of a crash only from a request that
// burns its retry budget, which starts the member client's reconnect
// handshake: reads keep that request coming while the shard is down,
// instead of leaving the client's next write to meet the dead
// connection after the restart and fail as partial.
//
//herd:hotpath
func (d *Deployment) soloReadable(key kv.Key, reps []int) bool {
	if len(d.recs) > 0 || d.aeQueued[key] {
		return false
	}
	for _, id := range reps {
		if d.shards[id].srv.Down() {
			return false
		}
	}
	return true
}

// ask issues o's read to replica slots lo..hi-1. As in Put, only
// locals are read after each call: the last replica's callback may run
// inside its call and finish o.
//
//herd:hotpath
func (c *Client) ask(o *op, lo, hi int) {
	key, reps := o.key, o.reps
	for i := lo; i < hi; i++ {
		done := o.slot(i)
		if err := c.subs[reps[i]].Get(key, done); err != nil {
			done(kv.Result{Key: key, IsGet: true, Status: kv.StatusTimeout, Err: err})
		}
	}
}

// resolveGetVersioned handles a versioned read's replica slot i. A
// solo read's hit is the answer; its miss or error asks the remaining
// replicas. Every answer ranks as settled, so the winner is the first
// to arrive among the highest-ranked. Its payload is handed to the
// caller as it is: each replica's Result.Value is already a fresh copy
// the fleet owns (kv.KV's ownership contract). When the winner is
// present and the primary did not answer with it, the key is queued
// for reconciliation before the read returns, so later reads of it ask
// every replica until the merge has brought the primary up to the
// answer this read gave.
//
//herd:hotpath
func (o *op) resolveGetVersioned(i int, r kv.Result) {
	c, id := o.c, o.reps[i]
	o.outstanding--
	if r.Err != nil {
		c.markSuspect(id)
		o.lastErr = r
	} else {
		rk := replicaRank{id: id, settled: true, present: r.Status == kv.StatusHit}
		if rk.present {
			// Unversioned legacy bytes rank at version zero.
			rk.stored = r.Value
			rk.ver, _, _, _ = kv.SplitVersion(r.Value)
		}
		o.states = append(o.states, rk)
	}
	if o.solo {
		o.solo = false
		if (r.Err != nil || r.Status != kv.StatusHit) && len(o.reps) > 1 {
			if r.Err != nil {
				c.reroutes++
				c.telReroutes.Inc()
			}
			o.outstanding = len(o.reps) - 1
			c.ask(o, 1, len(o.reps))
			return
		}
	}
	if o.outstanding != 0 {
		return
	}
	if len(o.states) == 0 {
		o.lastErr.Err = ErrAllReplicasDown
		o.finish(o.lastErr)
		return
	}
	key := o.key
	win := 0
	for i := range o.states {
		if o.states[win].below(&o.states[i]) {
			win = i
		}
	}
	w := &o.states[win]
	res := kv.Result{Key: key, IsGet: true, Status: kv.StatusMiss}
	if !w.present {
		o.finish(res)
		return
	}
	res.Status, res.Value = kv.StatusHit, w.stored
	if _, _, payload, ok := kv.SplitVersion(w.stored); ok {
		res.Value = payload
	}
	primaryHas, dropped := false, false
	for i := range o.states {
		st := &o.states[i]
		if !st.below(w) {
			primaryHas = primaryHas || st.id == o.reps[0]
			continue
		}
		c.staleObserved++
		c.telStaleObserved.Inc()
		c.repairIssued++
		c.telRepairIssued.Inc()
		// The sub-client copies the winning bytes before Put returns.
		if err := c.subs[st.id].Put(key, w.stored, c.repairAck); err != nil {
			// Validation failures just drop the repair; the queue below
			// retries the key.
			dropped = true
		}
	}
	if !primaryHas || dropped {
		c.d.EnqueueRepair(key) //lint:allow hotalloc — divergence only; the anti-entropy queue
	}
	o.finish(res)
}

// onRepairAck counts a read-repair back-fill the replica acknowledged.
func (c *Client) onRepairAck(r kv.Result) {
	if r.Err == nil {
		c.repairApplied++
		c.telRepairApplied.Inc()
	}
}
