package fleet

import (
	"herdkv/internal/kv"
	"herdkv/internal/mica"
)

// Anti-entropy: the background convergence sweep for versioned
// replication. Read repair only fixes divergence a read happens to
// observe; the anti-entropy queue fixes the rest. Keys arrive from
// three sources — a partial write (some replica missed the fan-out), a
// stale replica observed during a read, and a completed crash recovery
// (everything the restarted shard replicates gets re-audited) — and a
// background step drains the queue in MigrationBatch-sized chunks every
// MigrationInterval, the same pacing contract recovery catch-up obeys.
// The step is work-queue driven and self-terminating: once the queue
// drains no further event is scheduled, so Engine.Run still quiesces.
//
// Repairing a key is a server-side ordered merge: read the stored bytes
// on every up replica, pick the highest kv.Version stamp, and Preload
// the winner onto every replica that is behind. The member server's
// version-ordered apply refuses regressions, so a repair racing a
// fresher foreground write is harmless.

// EnqueueRepair queues key for the background anti-entropy sweep
// (deduplicated; a no-op unless the deployment is versioned).
func (d *Deployment) EnqueueRepair(key kv.Key) {
	if !d.cfg.Versioned || d.aeQueued[key] {
		return
	}
	d.aeQueued[key] = true
	d.aeQueue = append(d.aeQueue, key)
	d.aePending.Set(int64(len(d.aeQueue)))
	d.kickAntiEntropy()
}

// AntiEntropySweep enqueues every key present on any up shard — a
// full-fleet audit, used after a crash recovery completes and by
// experiments that want certified convergence before checking state.
func (d *Deployment) AntiEntropySweep() {
	if !d.cfg.Versioned {
		return
	}
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

// AntiEntropyPending returns the number of keys waiting for a sweep
// step.
func (d *Deployment) AntiEntropyPending() int { return len(d.aeQueue) }

// AntiEntropyStats reports how many keys the sweep has audited and how
// many it back-filled on at least one replica.
func (d *Deployment) AntiEntropyStats() (audited, repaired uint64) {
	return d.aeKeysN, d.aeFixedN
}

// kickAntiEntropy schedules a sweep step if none is pending.
func (d *Deployment) kickAntiEntropy() {
	if d.aeRunning || len(d.aeQueue) == 0 {
		return
	}
	d.aeRunning = true
	d.eng.After(d.cfg.MigrationInterval, d.antiEntropyStep)
}

// antiEntropyStep repairs one batch of queued keys and reschedules
// itself while work remains.
func (d *Deployment) antiEntropyStep() {
	d.aeSweeps.Inc()
	n := d.cfg.MigrationBatch
	if n > len(d.aeQueue) {
		n = len(d.aeQueue)
	}
	batch := d.aeQueue[:n]
	d.aeQueue = d.aeQueue[n:]
	for _, key := range batch {
		delete(d.aeQueued, key)
		d.aeKeys.Inc()
		d.aeKeysN++
		if d.repairKey(key) {
			d.aeFixed.Inc()
			d.aeFixedN++
		}
	}
	d.aePending.Set(int64(len(d.aeQueue)))
	d.aeRunning = false
	d.kickAntiEntropy()
}

// repairKey merges key's replica states to the highest version stamp,
// reporting whether any replica was back-filled. Down replicas are
// skipped — the recovery-completion sweep re-audits them once they are
// back.
func (d *Deployment) repairKey(key kv.Key) (repaired bool) {
	reps := d.Replicas(key)
	var winner []byte
	var winVer kv.Version
	have := make([]bool, len(reps))
	vers := make([]kv.Version, len(reps))
	for i, id := range reps {
		srv := d.shards[id].srv
		if srv.Down() {
			continue
		}
		stored, ok := srv.Partition(mica.Partition(key, d.cfg.Herd.NS)).Get(key)
		if !ok {
			have[i] = false
			continue
		}
		have[i] = true
		v, _, _, vok := kv.SplitVersion(stored)
		if !vok {
			continue // unversioned legacy bytes: nothing to order by
		}
		vers[i] = v
		if winner == nil || winVer.Less(v) {
			winner = append([]byte(nil), stored...)
			winVer = v
		}
	}
	if winner == nil {
		return false
	}
	for i, id := range reps {
		srv := d.shards[id].srv
		if srv.Down() {
			continue
		}
		if have[i] && !vers[i].Less(winVer) {
			continue // already at (or past) the winner
		}
		if err := srv.Preload(key, winner); err == nil {
			repaired = true
		}
	}
	return repaired
}
