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
//   - Reads go primary-first and fail over to the remaining replicas
//     when a sub-operation ends in core.ErrTimedOut, re-arming the full
//     retry budget against each replica in turn.
//   - Writes fan out to every replica and succeed when at least one
//     replica acknowledges.
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
	subs    []kv.KV     // indexed by shard id
	suspect []sim.Time  // per shard id: avoid reads until this time
	hot     *hotTracker // hot-key detector, nil when HotKeyTrack is 0

	failed   uint64
	inflight int

	reroutes     uint64
	replicaReads uint64
	fanoutPuts   uint64
	suspected    uint64
	hotWidened   uint64

	// Versioned-replication state: the write-stamp generator (verID
	// breaks same-instant ties between clients, verSeq between this
	// client's own writes) and the per-key floor of completed write
	// stamps — a read round whose winner is below the floor is provably
	// stale.
	verID  uint64
	verSeq uint64
	floors map[kv.Key]kv.Version

	// opFree pools the records of in-flight operations (see op);
	// repairAck is onRepairAck bound once, the callback of every
	// read-repair back-fill.
	opFree    []*op
	repairAck func(kv.Result)

	partialWrites uint64
	staleObserved uint64
	staleReads    uint64
	repairIssued  uint64
	repairApplied uint64

	telIssued     *telemetry.Counter
	telCompleted  *telemetry.Counter
	telFailed     *telemetry.Counter
	telReroutes   *telemetry.Counter
	telReplica    *telemetry.Counter
	telFanout     *telemetry.Counter
	telSuspected  *telemetry.Counter
	telHotWidened *telemetry.Counter
	telHotKeys    *telemetry.Gauge

	telPartial       *telemetry.Counter
	telStaleObserved *telemetry.Counter
	telStaleReads    *telemetry.Counter
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
	c.telHotWidened = tel.Counter("fleet.hotkey.widened")
	c.telHotKeys = tel.Gauge("fleet.hotkey.hot")
	c.telPartial = tel.Counter("fleet.writes.partial")
	c.telStaleObserved = tel.Counter("fleet.repair.stale")
	c.telStaleReads = tel.Counter("fleet.reads.stale")
	c.telRepairIssued = tel.Counter("fleet.repair.issued")
	c.telRepairApplied = tel.Counter("fleet.repair.applied")
	c.verID = uint64(len(d.clients))
	c.repairAck = c.onRepairAck
	if d.cfg.HotKeyTrack > 0 {
		c.hot = newHotTracker(d.cfg.HotKeyTrack, d.cfg.HotKeyThreshold, hotKeyWindow)
	}
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
// the read was reissued against the next replica.
func (c *Client) Reroutes() uint64 { return c.reroutes }

// ReplicaReads counts reads served by a non-primary replica.
func (c *Client) ReplicaReads() uint64 { return c.replicaReads }

// FanoutPuts counts fleet-level write operations (each fans out to R
// replicas).
func (c *Client) FanoutPuts() uint64 { return c.fanoutPuts }

// Suspected counts probation starts: terminal failures against a
// shard. Busy pushback never reaches the fleet: the member client
// absorbs it with hinted resubmits.
func (c *Client) Suspected() uint64 { return c.suspected }

// HotWidened counts reads of a hot key that widening steered to a
// non-primary start of the replica order.
func (c *Client) HotWidened() uint64 { return c.hotWidened }

// PartialWrites counts writes that some replicas applied and others
// did not — in legacy mode a silent divergence (the op still reports
// success), in versioned mode a failed op with ErrPartialWrite.
func (c *Client) PartialWrites() uint64 { return c.partialWrites }

// StaleObserved counts replicas a versioned read round caught behind
// the winning version (each is a read-repair candidate).
func (c *Client) StaleObserved() uint64 { return c.staleObserved }

// StaleReads counts versioned reads whose winning version was below
// this client's floor of completed writes — a provably stale result.
func (c *Client) StaleReads() uint64 { return c.staleReads }

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
	opGet            opKind = iota // first-ack read: primary-first with failover
	opWrite                        // first-ack write: fan-out, one ack suffices
	opGetVersioned                 // versioned read: every replica, version arbitration
	opWriteVersioned               // versioned write: stamped fan-out, every ack needed
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
	best                  kv.Result // fan-outs: the result to report
	lastErr               kv.Result

	// Versioned writes send every replica stored — stamp then value, in
	// a buffer the op owns (sub-clients copy a PUT's value before
	// returning). Versioned reads collect each replica's answer.
	stamp  kv.Version
	stored []byte
	states []replicaState

	slots []func(kv.Result)
}

// replicaState is one replica's answer to a versioned read.
type replicaState struct {
	id      int
	present bool
	ver     kv.Version
	payload []byte
	stored  []byte
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
	case opGetVersioned:
		o.resolveGetVersioned(i, r)
	default:
		o.resolveWriteVersioned(i, r)
	}
}

// Get reads key: primary-first with failover across the replica set in
// legacy mode, read-all with version arbitration (and optional read
// repair) in versioned mode.
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
	if c.hot != nil {
		c.widen(key, o.order)
	}
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

// Put writes key to every replica in its set; the operation succeeds
// when at least one replica acknowledges. The reported Result is the
// first successful replica's, with fleet-level latency (time to the
// last replica's resolution, since that is when the outcome is known).
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
	if c.d.cfg.Versioned {
		return c.putVersioned(key, value, reps, cb)
	}
	o := c.getOp(opWrite, key, cb)
	o.reps, o.outstanding = reps, len(reps)
	c.start()
	c.fanoutPuts++
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

// resolveWrite handles a first-ack write's replica slot i.
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
	if o.failures > 0 {
		// First-ack semantics swallow straggler failures: the op
		// succeeds but the replica set is now divergent on this key.
		// Count it — repair only exists in versioned mode.
		c.partialWrites++
		c.telPartial.Inc()
	}
	o.finish(o.best)
}

// putVersioned is the versioned write path: the value is stamped with
// a fresh (epoch, seq) version and sent to every replica as an
// ordinary PUT. The op succeeds only when every replica acks; a mixed
// outcome is a partial write (divergence), which fails the op with
// ErrPartialWrite and hands the key to the anti-entropy queue when
// repair is enabled.
//
//herd:hotpath
func (c *Client) putVersioned(key kv.Key, value []byte, reps []int, cb func(kv.Result)) error {
	c.verSeq++
	o := c.getOp(opWriteVersioned, key, cb)
	o.stamp = kv.Version{Epoch: int64(c.now()), Seq: c.verSeq<<16 | c.verID&0xffff}
	o.stored = append(kv.AppendVersion(o.stored, o.stamp, false), value...)
	o.reps, o.outstanding = reps, len(reps)
	c.start()
	c.fanoutPuts++
	c.telFanout.Inc()
	o.begun = c.now()
	// As in Put, only locals are read after each call.
	stored := o.stored
	for i, id := range reps {
		done := o.slot(i)
		if err := c.subs[id].Put(key, stored, done); err != nil {
			done(kv.Result{Key: key, Status: kv.StatusTimeout, Err: err})
		}
	}
	return nil
}

// resolveWriteVersioned handles a versioned write's replica slot i.
//
//herd:hotpath
func (o *op) resolveWriteVersioned(i int, r kv.Result) {
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
	res := o.best
	res.Key, res.IsGet, res.Value = o.key, false, nil
	switch {
	case o.failures == 0:
		c.noteFloor(o.key, o.stamp)
	case o.have:
		c.partialWrites++
		c.telPartial.Inc()
		if c.d.cfg.ReadRepair {
			c.d.EnqueueRepair(o.key) //lint:allow hotalloc — divergence only; the anti-entropy queue
		}
		res.Err = ErrPartialWrite
	default:
		res = o.lastErr
		res.Err = ErrAllReplicasDown
	}
	o.finish(res)
}

// noteFloor raises this client's completed-write floor for key.
//
//herd:hotpath
func (c *Client) noteFloor(key kv.Key, v kv.Version) {
	if c.floors == nil {
		c.floors = make(map[kv.Key]kv.Version) //lint:allow hotalloc — once per client
	}
	if f, ok := c.floors[key]; !ok || f.Less(v) {
		c.floors[key] = v
	}
}

// getVersioned is the versioned read path: fan the read to every
// replica, arbitrate by version stamp, and answer with the winner's
// payload (an absent winner is a miss). Replicas caught
// behind the winner are counted stale and — with ReadRepair — back-
// filled inline with the winning bytes; the member server's ordered
// apply makes a repair racing a fresher write harmless.
//
//herd:hotpath
func (c *Client) getVersioned(key kv.Key, reps []int, cb func(kv.Result)) error {
	o := c.getOp(opGetVersioned, key, cb)
	o.reps, o.outstanding = reps, len(reps)
	c.start()
	o.begun = c.now()
	// As in Put, only locals are read after each call.
	for i, id := range reps {
		done := o.slot(i)
		if err := c.subs[id].Get(key, done); err != nil {
			done(kv.Result{Key: key, IsGet: true, Status: kv.StatusTimeout, Err: err})
		}
	}
	return nil
}

// resolveGetVersioned handles a versioned read's replica slot i. The
// winner's payload is handed to the caller as it is: each replica's
// Result.Value is already a fresh copy the fleet owns (kv.KV's
// ownership contract).
//
//herd:hotpath
func (o *op) resolveGetVersioned(i int, r kv.Result) {
	c, id := o.c, o.reps[i]
	o.outstanding--
	if r.Err != nil {
		c.markSuspect(id)
		o.lastErr = r
	} else {
		st := replicaState{id: id}
		if r.Status == kv.StatusHit {
			st.present = true
			st.stored = r.Value
			if v, _, payload, ok := kv.SplitVersion(r.Value); ok {
				st.ver, st.payload = v, payload
			} else {
				// Unversioned legacy bytes rank at version zero.
				st.payload = r.Value
			}
		}
		o.states = append(o.states, st)
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
	win := -1
	for i := range o.states {
		if !o.states[i].present {
			continue
		}
		if win < 0 || o.states[win].ver.Less(o.states[i].ver) {
			win = i
		}
	}
	res := kv.Result{Key: key, IsGet: true, Status: kv.StatusMiss}
	if win < 0 {
		if f := c.floors[key]; !f.IsZero() {
			c.noteStaleRead(key) //lint:allow hotalloc — stale reads only; queues the key for repair
		}
		o.finish(res)
		return
	}
	w := &o.states[win]
	res.Status, res.Value = kv.StatusHit, w.payload
	if f := c.floors[key]; w.ver.Less(f) {
		// Every replica that answered is behind a write this client
		// completed: the result is provably stale.
		c.noteStaleRead(key) //lint:allow hotalloc — stale reads only; queues the key for repair
	}
	for i := range o.states {
		st := &o.states[i]
		if i == win || (st.present && !st.ver.Less(w.ver)) {
			continue
		}
		c.staleObserved++
		c.telStaleObserved.Inc()
		if !c.d.cfg.ReadRepair {
			continue
		}
		c.repairIssued++
		c.telRepairIssued.Inc()
		// The sub-client copies the winning bytes before Put returns.
		if err := c.subs[st.id].Put(key, w.stored, c.repairAck); err != nil {
			// Validation failures just drop the repair; the anti-entropy
			// sweep will retry the key.
			c.d.EnqueueRepair(key) //lint:allow hotalloc — divergence only; the anti-entropy queue
		}
	}
	o.finish(res)
}

// noteStaleRead counts a versioned read whose winner is below this
// client's floor of completed writes, and queues the key for repair.
func (c *Client) noteStaleRead(key kv.Key) {
	c.staleReads++
	c.telStaleReads.Inc()
	if c.d.cfg.ReadRepair {
		c.d.EnqueueRepair(key)
	}
}

// onRepairAck counts a read-repair back-fill the replica acknowledged.
func (c *Client) onRepairAck(r kv.Result) {
	if r.Err == nil {
		c.repairApplied++
		c.telRepairApplied.Inc()
	}
}
