package fleet

import (
	"slices"

	"herdkv/internal/core"
	"herdkv/internal/kv"
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
// Either way the catch-up keys go into the reconciliation queue
// (antientropy.go), whose paced step merges each one across its up
// replicas; the recovery completes once that step has drained past
// every key queued when it started.

// recovery tracks one shard's in-progress catch-up: its result so far,
// when the shard rejoined, and the reconciliation queue position it
// waits for (it completes once the step has merged that many keys).
type recovery struct {
	res   RecoveryResult
	at    sim.Time
	until uint64
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
	// CatchupKeys is how many keys the fleet-side catch-up queued: the
	// outage delta for a warm rejoin, the full replica set for a cold
	// one.
	CatchupKeys int
	// ReplayDuration is the shard's own log-replay outage.
	ReplayDuration sim.Time
	// CatchupDuration is the fleet-side catch-up time after rejoin.
	CatchupDuration sim.Time
	// Duration is the total: replay outage + catch-up.
	Duration sim.Time
}

// onShardRecovered fires when shard sh's Restart completes (warm or
// cold). It tells every client's member client of sh to reconnect, and
// queues sh's catch-up: every key an up shard other than sh emits whose
// replica set includes sh. Down shards are skipped: a crash wipes their
// partitions, and a WAL replay may still be refilling them.
//
// Reads skip a down shard, so a client may have sent it nothing during
// the outage, or its reconnect handshake may have backed off past the
// restart: without a fresh handshake its next request would meet the
// dead connection and fail.
func (d *Deployment) onShardRecovered(sh *shard, info core.RecoveryInfo) {
	for _, c := range d.clients {
		if sub, ok := c.subs[sh.id].(*core.Client); ok {
			sub.Reconnect()
		}
	}
	// A newer recovery of the same shard supersedes one still in flight.
	d.recs = slices.DeleteFunc(d.recs, func(r *recovery) bool { return r.res.ShardID == sh.id })
	rec := &recovery{at: info.At, res: RecoveryResult{ShardID: sh.id, Warm: info.Warm,
		Replayed: info.Replayed, SnapshotRecords: info.SnapshotRecords,
		TornBytes: info.TornBytes, ReplayDuration: info.Duration}}
	seen := make(map[kv.Key]bool)
	emit := func(key kv.Key) {
		if seen[key] || !slices.Contains(d.Replicas(key), sh.id) {
			return
		}
		seen[key] = true
		rec.res.CatchupKeys++
		d.recKeys.Inc()
		d.EnqueueRepair(key)
	}
	for _, src := range d.shards {
		if src.id == sh.id || src.srv.Down() {
			continue
		}
		if info.Warm {
			// Every key a survivor logged at or after Since: the writes
			// the shard's own log may be missing (its lost group-commit
			// window plus the whole outage).
			for _, r := range src.srv.WALRecordsSince(info.Since) {
				emit(r.Key)
			}
			continue
		}
		// A cold rejoin re-copies every key whose replica set includes
		// the shard.
		for p := 0; p < d.cfg.Herd.NS; p++ {
			src.srv.Partition(p).Range(func(key kv.Key, _ []byte) bool {
				emit(key)
				return true
			})
		}
	}
	rec.until = d.aeMerged.Value() + uint64(len(d.aeQueue))
	d.recs = append(d.recs, rec)
	d.recRounds.Inc()
	d.recActive.Set(int64(len(d.recs)))
	d.kickReconcile()
}

// catchingUp reports whether shard id has a catch-up in progress.
//
//herd:hotpath
func (d *Deployment) catchingUp(id int) bool {
	for _, r := range d.recs {
		if r.res.ShardID == id {
			return true
		}
	}
	return false
}

// settleRecoveries completes every catch-up the reconciliation step
// has drained past, in start order, and drops any whose shard crashed
// again (its next restart starts over).
func (d *Deployment) settleRecoveries() {
	for len(d.recs) > 0 {
		rec := d.recs[0]
		down := d.shards[rec.res.ShardID].srv.Down()
		if !down && rec.until > d.aeMerged.Value() {
			break
		}
		d.recs = d.recs[1:]
		d.recActive.Set(int64(len(d.recs)))
		if down {
			continue
		}
		rec.res.CatchupDuration = d.eng.Now() - rec.at
		rec.res.Duration = rec.res.ReplayDuration + rec.res.CatchupDuration
		d.lastRecovery = rec.res
		d.recTime.Set(int64(d.lastRecovery.Duration / sim.Nanosecond))
		// The fleet re-audits everything once the shard is back:
		// the delta catch-up covers the survivors' WAL tail, but a write
		// the survivor itself missed (a partial write during the outage)
		// is only reconciled by the full sweep.
		d.AntiEntropySweep()
	}
}

// LastRecovery returns the most recent completed shard recovery.
func (d *Deployment) LastRecovery() RecoveryResult { return d.lastRecovery }
