package experiments

import (
	"bytes"
	"fmt"

	"herdkv/internal/cluster"
	"herdkv/internal/core"
	"herdkv/internal/fault"
	"herdkv/internal/fleet"
	"herdkv/internal/kv"
	"herdkv/internal/mica"
	"herdkv/internal/sim"
	"herdkv/internal/workload"
)

// Durability is the crash-recovery experiment behind BENCH_durability:
// the same fleet, workload, and flushcrash schedule run twice — once
// with the write-ahead log off (a crashed shard restarts cold and the
// fleet re-replicates its whole replica set) and once with group-commit
// durability (the shard replays its own snapshot + log tail and pulls
// only the outage delta). The arms are compared on recovery time and
// audited for data loss after the drain.
//
// The schedule uses flushcrash, not crash: the power loss lands
// mid-group-commit, so the durable arm must also prove it truncates
// the torn log tail instead of replaying a damaged record.
//
// Everything is virtual-time deterministic: the same (spec, seed) pair
// produces a byte-identical table and JSON under -count=2 -race.

// durabilityScript crashes shard 0 mid-group-commit at 2 ms and
// restarts it at 3 ms. Crash-only (no packet loss) for the same reason
// as fleetChaosSchedule: the zero-failures invariant.
const durabilityScript = "flushcrash node=0 at=2ms restart=3ms"

func durabilitySchedule() *fault.Schedule {
	sched, err := fault.ParseSchedule(durabilityScript)
	if err != nil {
		panic(err)
	}
	return sched
}

// durabilityArm runs one arm: the fleet-chaos deployment with the given
// durability mode under the flushcrash schedule.
func durabilityArm(spec cluster.Spec, seed int64, mode core.Durability) Metrics {
	const runFor = 8 * sim.Millisecond
	fcfg := fleet.DefaultConfig()
	fcfg.Herd = chaosHerdConfig()
	fcfg.Herd.Durability = mode
	// A low snapshot threshold so the warm arm exercises snapshot
	// compaction (and snapshot + tail replay) within the 8 ms window.
	fcfg.Herd.WAL.SnapshotEvery = 64 << 10
	// Re-replication pacing: each batch models an RPC round-trip of
	// remote reads, so catch-up throughput is bounded by the network,
	// not by the survivor's memory bandwidth. Both arms share it — warm
	// wins by moving less data over the wire, not by a pacing thumb on
	// the scale.
	fcfg.MigrationBatch = 32
	fcfg.MigrationInterval = 4 * sim.Microsecond
	// Sized so the circular log never wraps during the run: cache
	// eviction would be indistinguishable from crash data loss in the
	// post-drain audit, and this experiment gates on the latter.
	fcfg.Herd.Mica.LogBytes = 2 << 20
	cl, d, clients := deployFleet(chaosDeploy(spec, durabilitySchedule(), seed), chaosShards, fcfg)

	// Heavy writes: the log must keep up under fire. The drain after
	// runFor also covers the recovery catch-up.
	var ok uint64
	drv := faultDrive(cl.Eng, clients, fcfg.Herd.Window, 0.50, seed, runFor, func(_ *chain, r kv.Result) {
		if r.Err == nil {
			ok++
		}
	})

	// Failed and hung must be zero: R=2 absorbs the outage either way.
	var failed, hung uint64
	for _, c := range clients {
		failed += c.Failed()
		hung += uint64(c.Inflight())
	}
	m := Metrics{}
	m.Set("issued", float64(drv.issued), "ops", "")
	m.Set("ok", float64(ok), "ops", "")
	m.Set("failed", float64(failed), "ops", "")
	m.Set("hung", float64(hung), "ops", "")

	// Recovery splits into the shard's own log-replay outage and the
	// fleet-side catch-up: the full replica set cold, the outage delta
	// warm. The log counters are zero for the cold arm.
	rec := d.LastRecovery()
	recoveryBetter := ""
	if mode != core.DurabilityOff {
		recoveryBetter = Lower
	}
	m.Set("recovery_us", rec.Duration.Microseconds(), "us", recoveryBetter)
	m.Set("replay_us", rec.ReplayDuration.Microseconds(), "us", "")
	m.Set("catchup_us", rec.CatchupDuration.Microseconds(), "us", "")
	m.Set("replayed", float64(rec.Replayed), "records", "")
	m.Set("snapshot_records", float64(rec.SnapshotRecords), "records", "")
	m.Set("torn_bytes", float64(rec.TornBytes), "bytes", "")
	m.Set("catchup_keys", float64(rec.CatchupKeys), "keys", "")
	var appends, flushes, snapshots uint64
	if w := d.Server(0).WAL(); w != nil {
		appends, flushes, snapshots = w.Appends(), w.Flushes(), w.Snapshots()
	}
	m.Set("wal_appends", float64(appends), "records", "")
	m.Set("wal_flushes", float64(flushes), "count", "")
	m.Set("wal_snapshots", float64(snapshots), "count", "")

	// Post-drain audit. Every client write used the key's fixed
	// expected value, so data loss is directly checkable: a key is lost
	// when no live replica stores that value after its stamp, and the
	// restarted shard (shard 0, the flushcrash target) must hold its
	// full replica share again.
	lost, missing := 0, 0
	var want []byte
	for k := uint64(0); k < chaosKeys; k++ {
		key := kv.FromUint64(k)
		want = workload.AppendExpectedValue(want[:0], key, chaosValueSize)
		part := mica.Partition(key, fcfg.Herd.NS)
		found, onZero := false, false
		for _, id := range d.Replicas(key) {
			v, _ := d.Server(id).Partition(part).Get(key)
			if _, _, payload, ok := kv.SplitVersion(v); ok && bytes.Equal(payload, want) {
				found = true
				if id == 0 {
					onZero = true
				}
			}
		}
		if !found {
			lost++
		}
		for _, id := range d.Replicas(key) {
			if id == 0 && !onZero {
				missing++
			}
		}
	}
	m.Set("lost_keys", float64(lost), "keys", "")
	m.Set("shard_missing", float64(missing), "keys", "")
	return m
}

// Durability runs both arms, named by durability mode, and renders the
// comparison. The report is BENCH_durability.json.
func Durability(spec cluster.Spec, seed int64) (*Table, *Report) {
	rep := newReport("durability", spec)
	rep.Params["schedule"] = durabilityScript
	rep.Params["seed"] = fmt.Sprint(seed)
	cold := durabilityArm(spec, seed, core.DurabilityOff)
	warm := durabilityArm(spec, seed, core.DurabilityGroupCommit)
	rep.Arms["off"], rep.Arms["group-commit"] = cold, warm

	t := &Table{
		ID:    "durability",
		Title: fmt.Sprintf("Crash recovery: cold re-replication vs WAL warm rejoin — %s", spec.Name),
		Columns: []string{"mode", "recovery_us", "replay_us", "catchup_us",
			"replayed", "snap_recs", "torn_B", "catchup_keys", "lost", "failed"},
	}
	for _, mode := range []string{"off", "group-commit"} {
		a := rep.Arms[mode]
		t.AddRow(mode,
			cell(a["recovery_us"].Value), cell(a["replay_us"].Value), cell(a["catchup_us"].Value),
			a.itoa("replayed"), a.itoa("snapshot_records"),
			a.itoa("torn_bytes"), a.itoa("catchup_keys"),
			a.itoa("lost_keys"), a.itoa("failed"),
		)
	}
	t.AddNote("gate: lost=0 both arms, warm recovery strictly faster than cold, torn tail truncated (torn_B>0 warm), replay byte-identical across -count=2")
	t.AddNote("warm shard 0 WAL: %s appends, %s group commits, %s snapshot compactions",
		warm.itoa("wal_appends"), warm.itoa("wal_flushes"), warm.itoa("wal_snapshots"))
	t.AddNote("ops: cold %s issued / %s ok, warm %s issued / %s ok (failed must be 0: R=2 absorbs the outage)",
		cold.itoa("issued"), cold.itoa("ok"), warm.itoa("issued"), warm.itoa("ok"))
	return t, rep
}

// DurabilityScenario is the packaged run used by herdbench and the CI
// gate.
func DurabilityScenario(spec cluster.Spec) (*Table, *Report) {
	return Durability(spec, 1)
}
