package fleet

import (
	"slices"

	"herdkv/internal/core"
	"herdkv/internal/kv"
	"herdkv/internal/mica"
	"herdkv/internal/sim"
)

// Shard crash recovery: when a member server's Restart completes, the
// deployment brings the shard's replica set back to full strength.
//
// With durability on the rejoin is warm — the server has already
// replayed its own snapshot + log tail — so only a delta catch-up is
// needed: the writes that landed on the surviving replicas during the
// outage plus the group-commit window the crashed log may have lost
// (core.RecoveryInfo.Since bounds both). Without durability the rejoin
// is cold and the whole replica set must be re-copied.
//
// Both paths are paced by MigrationBatch and MigrationInterval, so
// catch-up interleaves with foreground traffic instead of stalling it.

// recovery tracks one shard's in-progress catch-up.
type recovery struct {
	shardID int
	info    core.RecoveryInfo
	queue   []keyCopy
	pos     int
	keys    int
}

// RecoveryResult summarizes one completed shard recovery.
type RecoveryResult struct {
	// ShardID is the recovered shard.
	ShardID int
	// Warm reports whether the shard replayed a WAL before rejoining.
	Warm bool
	// Replayed and SnapshotRecords are the shard's own log replay
	// counts (zero for a cold rejoin).
	Replayed        int
	SnapshotRecords int
	// TornBytes is how much torn log tail the replay truncated.
	TornBytes int
	// CatchupKeys is how many keys the fleet-side catch-up applied:
	// the outage delta for a warm rejoin, the full replica set for a
	// cold one.
	CatchupKeys int
	// ReplayDuration is the shard's own log-replay outage.
	ReplayDuration sim.Time
	// CatchupDuration is the fleet-side catch-up time after rejoin.
	CatchupDuration sim.Time
	// Duration is the total: replay outage + catch-up.
	Duration sim.Time
}

// watchRecovery installs the recovery hook on one shard's server.
func (d *Deployment) watchRecovery(sh *shard) {
	sh.srv.SetRecoveryHook(func(info core.RecoveryInfo) {
		d.onShardRecovered(sh, info)
	})
}

// onShardRecovered fires when shard sh's Restart completes (warm or
// cold) and starts the fleet-side catch-up.
func (d *Deployment) onShardRecovered(sh *shard, info core.RecoveryInfo) {
	rec := &recovery{shardID: sh.id, info: info}
	if info.Warm {
		// Every key the shard replicates that a survivor logged at or
		// after Since: the writes the shard's own log may be missing
		// (its lost group-commit window plus the whole outage).
		rec.queue = d.copyQueue(sh.id, func(src *core.Server, emit func(kv.Key)) {
			for _, r := range src.WALRecordsSince(info.Since) {
				emit(r.Key)
			}
		})
	} else {
		// A cold rejoin re-copies every key whose replica set includes
		// the shard.
		rec.queue = d.copyQueue(sh.id, func(src *core.Server, emit func(kv.Key)) {
			for p := 0; p < d.cfg.Herd.NS; p++ {
				src.Partition(p).Range(func(key kv.Key, _ []byte) bool {
					emit(key)
					return true
				})
			}
		})
	}
	if d.recs == nil {
		d.recs = make(map[int]*recovery)
	}
	d.recs[sh.id] = rec
	d.recRounds.Inc()
	d.recActive.Set(int64(len(d.recs)))
	d.eng.After(d.cfg.MigrationInterval, func() { d.recoveryStep(rec) })
}

// copyQueue returns one copy for every key that keys emits from an up
// shard other than id and whose replica set includes id, sourced from
// the first such shard (in id order) that emits it. Down shards are
// skipped: a crash wipes their partitions, and a WAL replay may still
// be refilling them.
func (d *Deployment) copyQueue(id int, keys func(src *core.Server, emit func(kv.Key))) []keyCopy {
	seen := make(map[kv.Key]struct{})
	var queue []keyCopy
	for _, src := range d.shards {
		if src.id == id || src.srv.Down() {
			continue
		}
		keys(src.srv, func(key kv.Key) {
			if _, dup := seen[key]; dup || !slices.Contains(d.Replicas(key), id) {
				return
			}
			seen[key] = struct{}{}
			queue = append(queue, keyCopy{key: key, src: src.id})
		})
	}
	return queue
}

// recoveryStep applies one batch of catch-up keys to the recovered
// shard, re-reading each from its survivor at apply time, so the shard
// converges on the survivor's current view: present there → copy,
// absent there → delete here. Aborts if the shard crashes again
// mid-catch-up (the next recovery starts over).
func (d *Deployment) recoveryStep(rec *recovery) {
	if d.recs[rec.shardID] != rec {
		return // superseded by a newer recovery of the same shard
	}
	sh := d.shards[rec.shardID]
	if sh.srv.Down() {
		d.finishRecovery(rec, sh, true)
		return
	}
	end := rec.pos + d.cfg.MigrationBatch
	if end > len(rec.queue) {
		end = len(rec.queue)
	}
	for ; rec.pos < end; rec.pos++ {
		e := rec.queue[rec.pos]
		src := d.shards[e.src].srv
		if src.Down() {
			continue // the survivor died too; another recovery will heal it
		}
		part := src.Partition(mica.Partition(e.key, d.cfg.Herd.NS))
		if v, ok := part.Get(e.key); ok {
			_ = sh.srv.Preload(e.key, append([]byte(nil), v...))
		} else {
			// Gone from the survivor since it was logged (evicted, or
			// dropped by its own catch-up): converge by deleting here
			// too, or replay could resurrect it.
			sh.srv.PreloadDelete(e.key)
		}
		rec.keys++
		d.recKeys.Inc()
	}
	d.recPending.Set(int64(len(rec.queue) - rec.pos))
	if rec.pos < len(rec.queue) {
		d.eng.After(d.cfg.MigrationInterval, func() { d.recoveryStep(rec) })
		return
	}
	d.finishRecovery(rec, sh, false)
}

// finishRecovery completes (or aborts) one catch-up and records its
// result.
func (d *Deployment) finishRecovery(rec *recovery, sh *shard, aborted bool) {
	delete(d.recs, rec.shardID)
	d.recActive.Set(int64(len(d.recs)))
	if aborted {
		return
	}
	catchup := d.eng.Now() - rec.info.At
	d.lastRecovery = RecoveryResult{
		ShardID:         rec.shardID,
		Warm:            rec.info.Warm,
		Replayed:        rec.info.Replayed,
		SnapshotRecords: rec.info.SnapshotRecords,
		TornBytes:       rec.info.TornBytes,
		CatchupKeys:     rec.keys,
		ReplayDuration:  rec.info.Duration,
		CatchupDuration: catchup,
		Duration:        rec.info.Duration + catchup,
	}
	d.recTime.Set(int64(d.lastRecovery.Duration / sim.Nanosecond))
	// A versioned fleet re-audits everything once the shard is back:
	// the delta catch-up replays the survivors' WAL tail, but a write
	// the survivor itself missed (a partial write during the outage)
	// is only reconciled by the anti-entropy sweep.
	d.AntiEntropySweep()
	if d.onRecovered != nil {
		d.onRecovered(d.lastRecovery)
	}
}

// RecoveryActive reports whether any shard catch-up is in progress.
func (d *Deployment) RecoveryActive() bool { return len(d.recs) > 0 }

// LastRecovery returns the most recent completed shard recovery.
func (d *Deployment) LastRecovery() RecoveryResult { return d.lastRecovery }

// OnRecovery registers fn to run after each completed shard recovery
// (experiments use it to timestamp fleet-level recovery).
func (d *Deployment) OnRecovery(fn func(RecoveryResult)) { d.onRecovered = fn }
