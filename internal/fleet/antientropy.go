package fleet

import (
	"herdkv/internal/kv"
	"herdkv/internal/mica"
	"herdkv/internal/sim"
)

// Anti-entropy: the fleet's one reconciliation mechanism. Read repair
// only fixes divergence a read happens to observe; the reconciliation
// queue fixes the rest. Keys arrive from four sources — a partial write
// (some replica missed the fan-out), a read whose answer its first
// replica did not give, a restarted shard's catch-up (recovery.go), and
// a full AntiEntropySweep — and are deduplicated while queued. While a
// key is queued, reads of it ask every up replica. A background step
// drains the queue in MigrationBatch-sized chunks every
// MigrationInterval, so reconciliation interleaves with foreground
// traffic instead of stalling it. The step is work-queue driven and
// self-terminating: once the queue drains and no catch-up waits on it,
// no further event is scheduled, so Engine.Run still quiesces.
//
// Each key is settled by one server-side merge (see merge). A missing
// key never wins it: MICA's lossy log only loses a key by eviction, so
// a replica without the key has missed or dropped a write, never
// applied a delete. Member servers refuse regressions, so a merge
// racing a fresher foreground write is harmless.

// EnqueueRepair queues key for the background reconciliation step
// (deduplicated while queued).
func (d *Deployment) EnqueueRepair(key kv.Key) {
	if d.aeQueued[key] {
		return
	}
	d.aeQueued[key] = true
	d.aeQueue = append(d.aeQueue, key)
	d.aePending.Set(int64(len(d.aeQueue)))
	d.kickReconcile()
}

// AntiEntropySweep enqueues every key present on any up shard — a
// full-fleet audit, run after each crash recovery completes and by
// experiments that want certified convergence before checking state.
func (d *Deployment) AntiEntropySweep() {
	for _, sh := range d.shards {
		if sh.srv.Down() {
			continue
		}
		for p := 0; p < d.cfg.Herd.NS; p++ {
			sh.srv.Partition(p).Range(func(key kv.Key, _ []byte) bool {
				d.EnqueueRepair(key)
				return true
			})
		}
	}
}

// AntiEntropyStats reports how many keys the step has merged and how
// many of those merges wrote at least one replica.
func (d *Deployment) AntiEntropyStats() (audited, repaired uint64) {
	return d.aeMerged.Value(), d.aeFixed.Value()
}

// kickReconcile schedules a step if none is pending and there is work:
// a queued key, or a catch-up waiting to complete.
func (d *Deployment) kickReconcile() {
	if d.aeRunning || (len(d.aeQueue) == 0 && len(d.recs) == 0) {
		return
	}
	d.aeRunning = true
	d.eng.After(d.cfg.MigrationInterval, d.reconcile)
}

// reconcile merges one batch of queued keys, completes the catch-ups
// it drained past, and reschedules itself while work remains.
func (d *Deployment) reconcile() {
	d.aeSweeps.Inc()
	n := min(d.cfg.MigrationBatch, len(d.aeQueue))
	batch := d.aeQueue[:n]
	d.aeQueue = d.aeQueue[n:]
	for _, key := range batch {
		delete(d.aeQueued, key)
		d.aeMerged.Inc()
		if d.merge(key) {
			d.aeFixed.Inc()
		}
	}
	d.aePending.Set(int64(len(d.aeQueue)))
	d.settleRecoveries()
	d.aeRunning = false
	d.kickReconcile()
}

// replicaRank is one up replica's copy of a key, as merge and a read
// rank it.
type replicaRank struct {
	id      int // the replica's shard id (set by reads)
	present bool
	ver     kv.Version
	settled bool // not mid-catch-up
	stored  []byte
	lease   sim.Time // a read's reply: the server's lease
}

// below reports whether r ranks strictly below o: holding the key
// beats lacking it, then the higher version stamp wins, then a settled
// replica beats one still catching up.
//
//herd:hotpath
func (r *replicaRank) below(o *replicaRank) bool {
	if r.present != o.present {
		return o.present
	}
	if c := r.ver.Compare(o.ver); c != 0 {
		return c < 0
	}
	return !r.settled && o.settled
}

// merge reads key on every up replica, picks the highest-ranked state
// (the first in replica order among equals) and Preloads its bytes onto
// every replica ranked below it. It reports whether any Preload
// succeeded. Down replicas are skipped: their own restart's catch-up
// brings them back.
func (d *Deployment) merge(key kv.Key) (wrote bool) {
	reps := d.Replicas(key)
	part := mica.Partition(key, d.cfg.Herd.NS)
	var ranks [maxDepth]replicaRank
	win := -1
	for i, id := range reps {
		srv := d.shards[id].srv
		if srv.Down() {
			continue
		}
		r := &ranks[i]
		r.settled = !d.catchingUp(id)
		r.stored, r.present = srv.Partition(part).Get(key)
		if r.present {
			r.ver, _, _, _ = kv.SplitVersion(r.stored)
		}
		if win < 0 || ranks[win].below(r) {
			win = i
		}
	}
	if win < 0 || !ranks[win].present {
		return false
	}
	for i, id := range reps {
		srv := d.shards[id].srv
		if !srv.Down() && ranks[i].below(&ranks[win]) && srv.Preload(key, ranks[win].stored) == nil {
			wrote = true
		}
	}
	return wrote
}
