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
// client, less kv.VersionPrefixLen (the stamp travels inside the stored
// value), so a fan-out write is rejected before any replica sees it.
var ErrValueTooLarge = errors.New("fleet: value exceeds maximum size")

// ErrEmptyValue rejects a PUT with no value at the fleet client, as
// every member server's client does: were it fanned out, each replica
// would refuse it and the fleet would suspect healthy shards.
var ErrEmptyValue = errors.New("fleet: PUT requires a non-empty value")

// ErrPartialWrite reports a write that a replica in the view (see Put)
// did not apply: the fleet is divergent on this key until repair
// reconciles it, so the operation fails (the write may still become
// visible — callers must treat it as indeterminate, not as a rollback).
var ErrPartialWrite = errors.New("fleet: write applied on only part of the replica set")

// Client is one application host's handle on the fleet. It implements
// the kv.KV client interface on top of one HERD sub-client per shard,
// with versioned replication:
//
//   - A write stamps its value with a fresh (epoch, seq) version, fans
//     it out to every replica and succeeds when every replica in the
//     view acks (see Put).
//   - A read asks the key's first up replica alone, and every other up
//     replica at once when that one misses or fails. It asks every up
//     replica from the start when this client suspects the first one,
//     while any shard is catching up, or while the key is queued for
//     reconciliation (see Get).
//   - A shard whose operation failed terminally is suspected for a
//     fixed probation of virtual time: reads that would ask it alone
//     ask every up replica until the probation lapses.
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

	reroutes  uint64
	suspected uint64

	// The write-stamp generator: verID breaks same-instant ties between
	// clients, verSeq between this client's own writes.
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

// Reroutes counts read failovers: a read asked of one replica failed
// terminally there and was reissued against every remaining up replica.
func (c *Client) Reroutes() uint64 { return c.reroutes }

// Suspected counts probation starts: terminal failures against a
// shard. Busy pushback never reaches the fleet: the member client
// absorbs it with hinted resubmits.
func (c *Client) Suspected() uint64 { return c.suspected }

// HotWidened always reads 0: the fleet no longer widens hot reads. It
// stays only for existing callers, and leaves with the next benchmark
// change.
func (c *Client) HotWidened() uint64 { return 0 }

// PartialWrites counts writes that some replicas applied and others
// did not. Each queues its key for reconciliation; it fails with
// ErrPartialWrite only when a replica in the view missed it.
func (c *Client) PartialWrites() uint64 { return c.partialWrites }

// StaleObserved counts replicas a read round caught behind the winning
// version (each is back-filled inline).
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
	opGet   opKind = iota // read: one replica, or every up replica
	opWrite               // stamped fan-out write
)

// op is one fleet-level operation in flight. Ops are pooled per
// Client, and each carries one callback per sub-operation slot, bound
// on first use and kept across recycling (as mux.Endpoint.getOp does),
// so issuing a read or write allocates nothing once the pool is warm.
// A write's slot i is the replica reps[i]; a read's slot i is the
// replica order[i]. An op returns to the pool exactly once: when its
// last sub-operation resolves, just before the caller's callback runs.
type op struct {
	c     *Client
	kind  opKind
	key   kv.Key
	cb    func(kv.Result)
	begun sim.Time

	// reps is the key's replica set, a shared read-only ring slice
	// (Ring.Replicas); order is a read's replica order, in a buffer the
	// op owns.
	reps  []int
	order []int

	outstanding, failures int
	have                  bool      // writes: best holds a served result
	viewFailed            bool      // writes: a replica in the view failed
	downAtIssue           uint8     // writes: bit i set when reps[i] was down at issue
	solo                  bool      // reads: asking one replica alone
	best                  kv.Result // writes: the result to report
	lastErr               kv.Result

	// Writes send every replica stored — stamp then value, in a buffer
	// the op owns (sub-clients copy a PUT's value before returning).
	// Reads collect each replica's answer, in arrival order.
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
	if o.kind == opWrite {
		o.resolveWrite(i, r)
		return
	}
	o.resolveGet(i, r)
}

// Get reads key. Its replica order is key's up replicas in ring order
// (every replica, when none is up). It asks the first of them alone
// when this client does not suspect it and the deployment allows it
// (soloReadable), and all of them at once otherwise. Every completed
// write was acked by every replica in its view (see Put) and each
// server applies writes in stamp order, so an up replica with no
// catch-up in progress holds the newest completed version of every key
// that is not queued for reconciliation, unless it lost the key: an
// eviction reads as a miss, and a crash leaves the shard down and then
// catching up, which turns every read to read-all.
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
	o := c.getOp(opGet, key, cb)
	c.start()
	o.begun = c.now()
	o.order = c.d.upReplicas(o.order, reps)
	o.solo = c.suspect[o.order[0]] <= o.begun && c.d.soloReadable(key)
	o.outstanding = len(o.order)
	if o.solo {
		o.outstanding = 1
	}
	c.ask(o, 0, o.outstanding)
	return nil
}

// Put writes key to every replica in its set, stamped with a fresh
// (epoch, seq) version. It succeeds when every replica in the view acks.
// A replica is out of the view when it was down when the write was
// issued, is down when its reply resolves, or is catching up after a
// restart. Any replica that missed the write queues the key for the
// reconciliation step, and a miss by a replica in the view fails the op
// with ErrPartialWrite. The reported Result is the first successful
// replica's, with fleet-level latency (time to the last replica's
// resolution, since that is when the outcome is known).
//
//herd:hotpath
func (c *Client) Put(key kv.Key, value []byte, cb func(kv.Result)) error {
	if key.IsZero() {
		return mica.ErrZeroKey
	}
	if len(value) > mica.MaxValueSize-kv.VersionPrefixLen {
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
	c.verSeq++
	stamp := kv.Version{Epoch: int64(c.now()), Seq: c.verSeq<<16 | c.verID&0xffff}
	o.stored = append(kv.AppendVersion(o.stored, stamp, false), value...)
	stored := o.stored
	o.reps, o.outstanding = reps, len(reps)
	for i, id := range reps {
		if c.d.shards[id].srv.Down() {
			o.downAtIssue |= 1 << i
		}
	}
	c.start()
	c.telFanout.Inc()
	o.begun = c.now()
	// The last replica's callback may run inside its call and finish o;
	// the loop reads only locals after each call.
	for i, id := range reps {
		done := o.slot(i)
		if err := c.subs[id].Put(key, stored, done); err != nil {
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
		if o.downAtIssue&(1<<i) == 0 && c.d.inView(id) {
			o.viewFailed = true
		}
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
		// A replica missed the write, so the replica set is divergent
		// on this key until the reconciliation step merges it.
		c.partialWrites++
		c.telPartial.Inc()
		c.d.EnqueueRepair(o.key) //lint:allow hotalloc — divergence only; the anti-entropy queue
		if o.viewFailed {
			res.Err = ErrPartialWrite
		}
	}
	o.finish(res)
}

// upReplicas appends the up replicas of reps to dst, in ring order, and
// returns it; it appends all of reps when none is up.
//
//herd:hotpath
func (d *Deployment) upReplicas(dst, reps []int) []int {
	n := len(dst)
	for _, id := range reps {
		if !d.shards[id].srv.Down() {
			dst = append(dst, id)
		}
	}
	if len(dst) == n {
		dst = append(dst, reps...)
	}
	return dst
}

// inView reports whether shard id is in the view that a write needs the
// ack of: it is up and has no catch-up in progress. Down() is a perfect
// failure detector, an oracle a real fleet replaces with a lease-based
// configuration manager (docs/ROBUSTNESS.md).
//
//herd:hotpath
func (d *Deployment) inView(id int) bool {
	return !d.shards[id].srv.Down() && !d.catchingUp(id)
}

// soloReadable reports whether a read of key may ask one up replica
// alone: no shard is catching up after a restart, and key is not
// waiting for reconciliation. A catch-up and a queued key are the two
// ways an up replica can be behind another — a restart that lost a
// group-commit window or missed writes while out of the view (its
// catch-up may miss a key whose other holder was itself down, so every
// shard's catch-up counts), and a partial write or a read that saw
// divergence — and each lasts until the reconciliation merge has run,
// so every client agrees when a key goes back to read-one.
//
//herd:hotpath
func (d *Deployment) soloReadable(key kv.Key) bool {
	return len(d.recs) == 0 && !d.aeQueued[key]
}

// ask issues o's read to the replicas order[lo..hi-1]. As in Put, only
// locals are read after each call: the last replica's callback may run
// inside its call and finish o.
//
//herd:hotpath
func (c *Client) ask(o *op, lo, hi int) {
	key, order := o.key, o.order
	for i := lo; i < hi; i++ {
		done := o.slot(i)
		if err := c.subs[order[i]].Get(key, done); err != nil {
			done(kv.Result{Key: key, IsGet: true, Status: kv.StatusTimeout, Err: err})
		}
	}
}

// resolveGet handles a read's reply from order[i]. An error suspects
// the replica. A read asked of one replica answers with its hit; a miss
// or an error asks every remaining replica at once.
//
// The read ranks the replies it collected as the reconciliation merge
// does; every reply ranks as settled, so the winner is the first to
// arrive among the highest-ranked. Its payload and lease are handed to
// the caller as they are: each replica's Result.Value is already a
// fresh copy the fleet owns (kv.KV's ownership contract). Replicas
// ranked below the winner are counted stale and back-filled inline with
// the winning bytes; the member server's ordered apply makes a repair
// racing a fresher write harmless. When the winner is present and the
// first replica in order did not answer with it, the key is queued for
// reconciliation before the read returns, so later reads of it ask
// every replica until the merge has brought that replica up to the
// answer this read gave.
//
//herd:hotpath
func (o *op) resolveGet(i int, r kv.Result) {
	c, id := o.c, o.order[i]
	o.outstanding--
	if r.Err != nil {
		c.markSuspect(id)
		o.lastErr = r
	} else {
		rk := replicaRank{id: id, settled: true, present: r.Status == kv.StatusHit}
		if rk.present {
			rk.stored, rk.lease = r.Value, r.Lease
			// A value too short to carry a stamp ranks at version zero.
			rk.ver, _, _, _ = kv.SplitVersion(r.Value)
		}
		o.states = append(o.states, rk)
	}
	if o.solo && (r.Err != nil || r.Status != kv.StatusHit) && i+1 < len(o.order) {
		if r.Err != nil {
			c.reroutes++
			c.telReroutes.Inc()
		}
		o.solo, o.outstanding = false, len(o.order)-i-1
		c.ask(o, i+1, len(o.order))
		return
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
	res.Status, res.Value, res.Lease = kv.StatusHit, w.stored, w.lease
	if _, _, payload, ok := kv.SplitVersion(w.stored); ok {
		res.Value = payload
	}
	primaryHas, dropped := false, false
	for i := range o.states {
		st := &o.states[i]
		if !st.below(w) {
			primaryHas = primaryHas || st.id == o.order[0]
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
