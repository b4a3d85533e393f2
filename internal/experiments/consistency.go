package experiments

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"herdkv/internal/cluster"
	"herdkv/internal/core"
	"herdkv/internal/fault"
	"herdkv/internal/fleet"
	"herdkv/internal/histcheck"
	"herdkv/internal/kv"
	"herdkv/internal/mica"
	"herdkv/internal/sim"
	"herdkv/internal/stats"
)

// Consistency is the nemesis-driven consistency experiment behind
// BENCH_consistency: a versioned fleet with read repair and
// anti-entropy runs a small closed-loop workload under a generated
// chaos schedule. Every client operation is recorded with histcheck and
// the history is checked for per-key linearizability after the drain;
// one anti-entropy sweep must then leave every replica set converged.
//
// The schedule is pinned (consistencyNemesisSeed), and
// TestConsistencyGateSeeds runs the same gate under 64 more. The
// checker's own negative control is a mutation test: a recorded
// history with one read rewritten to an older write's value must fail.
//
// The fleet runs DurabilitySync so a crashed shard restarts warm: the
// divergence under test comes from the network (a blacked-out replica
// missing a write), not from crash data loss.
//
// Everything is virtual-time deterministic: the same (spec, seed) pair
// produces a byte-identical table and JSON under -count=2 -race.

// Consistency experiment sizing. Keys × ops stay well under the
// histcheck per-key cap: consistencyClients*consistencyOps ops spread
// round-robin over consistencyKeys keys.
const (
	consistencyShards  = 3
	consistencyClients = 3
	consistencyKeys    = 8
	consistencyOps     = 48 // per client; divisible by consistencyKeys
	consistencyGap     = 20 * sim.Microsecond
)

// consistencyNemesis parameterizes one generated schedule: the shard
// machines are crashable, the client machines join the link-fault peer
// range so a generated blackout can sever one client from one replica —
// the fault that splits a write's fan-out.
func consistencyNemesis(seed int64) fault.NemesisConfig {
	return fault.NemesisConfig{
		Seed:       seed,
		Until:      1200 * sim.Microsecond,
		Nodes:      consistencyShards,
		Peers:      consistencyShards + consistencyClients,
		Crashes:    1,
		Blackouts:  2,
		Partitions: 1,
		MinDown:    150 * sim.Microsecond,
		MaxDown:    400 * sim.Microsecond,
	}
}

// nemesisLine renders the config as its re-parseable script line. It
// names flushcrashes only when there are some, so the line for a
// config without them reads as it always has.
func nemesisLine(cfg fault.NemesisConfig) string {
	us := func(t sim.Time) string { return fmt.Sprintf("%gus", t.Microseconds()) }
	flush := ""
	if cfg.FlushCrashes > 0 {
		flush = fmt.Sprintf(" flushcrashes=%d", cfg.FlushCrashes)
	}
	return fmt.Sprintf(
		"nemesis seed=%d until=%s nodes=%d peers=%d crashes=%d%s blackouts=%d partitions=%d mindown=%s maxdown=%s",
		cfg.Seed, us(cfg.Until), cfg.Nodes, cfg.Peers,
		cfg.Crashes, flush, cfg.Blackouts, cfg.Partitions, us(cfg.MinDown), us(cfg.MaxDown))
}

// consistencyNemesisSeed pins the schedule the report runs: the first
// generated schedule, searching up from seed 1, under which the retired
// first-ack fleet served a stale read.
const consistencyNemesisSeed = 9

// consistencyArm runs the fleet under the given schedule, checks the
// recorded history and returns the metrics with the history.
func consistencyArm(spec cluster.Spec, seed int64, sched *fault.Schedule) (Metrics, *histcheck.Recorder) {
	fcfg := fleet.DefaultConfig()
	fcfg.Herd = chaosHerdConfig()
	fcfg.Herd.Durability = core.DurabilitySync
	fcfg.Herd.Mica = mica.Config{IndexBuckets: 1 << 8, BucketSlots: 8, LogBytes: 1 << 20}
	fcfg.MigrationBatch = 32
	fcfg.MigrationInterval = 4 * sim.Microsecond
	spec.Faults = sched
	// No preload: the history checker starts every key absent.
	cl, d, clients := deployFleet(deploySpec{spec: spec, seed: seed,
		clients: consistencyClients, perMachine: 1}, consistencyShards, fcfg)

	var opsIssued, okOps uint64
	rec := &histcheck.Recorder{}
	var nextValue uint64
	for i, c := range clients {
		i, c := i, c
		rnd := sim.NewRand(seed + int64(i)*7919)
		issued := 0
		var issue func()
		issue = func() {
			if issued >= consistencyOps {
				return
			}
			// Round-robin key choice: every key collects exactly
			// clients*ops/keys operations, comfortably under the
			// histcheck 64-op cap even counting failed writes.
			key := kv.FromUint64(1 + uint64(i*consistencyOps+issued)%consistencyKeys)
			issued++
			opsIssued++
			next := func() { cl.Eng.After(consistencyGap, issue) }
			if rnd.Intn(2) == 0 {
				id := rec.BeginRead(key, cl.Eng.Now())
				c.Get(key, func(r kv.Result) {
					if r.Err != nil {
						rec.Fail(id)
					} else {
						okOps++
						var v uint64
						if r.Status == kv.StatusHit && len(r.Value) >= 8 {
							v = binary.LittleEndian.Uint64(r.Value)
						}
						rec.EndRead(id, v, cl.Eng.Now())
					}
					next()
				})
			} else {
				nextValue++
				v := nextValue
				buf := make([]byte, 8)
				binary.LittleEndian.PutUint64(buf, v)
				id := rec.BeginWrite(key, v, cl.Eng.Now())
				c.Put(key, buf, func(r kv.Result) {
					if r.Err != nil {
						rec.Fail(id)
					} else {
						okOps++
						rec.EndWrite(id, cl.Eng.Now())
					}
					next()
				})
			}
		}
		cl.Eng.At(sim.Time(i)*sim.Microsecond, issue)
	}

	cl.Eng.Run() // closed loop drains itself: fixed op budget per client

	// Failed ops stay in the history as indeterminate: a failed write
	// may have landed.
	var failed, partial, stale, repairs uint64
	for _, c := range clients {
		failed += c.Failed()
		partial += c.PartialWrites()
		stale += c.StaleObserved()
		repairs += c.RepairsApplied()
	}
	m := Metrics{}
	m.Set("issued", float64(opsIssued), "ops", "")
	m.Set("ok", float64(okOps), "ops", "")
	m.Set("failed", float64(failed), "ops", "")
	m.Set("partial_writes", float64(partial), "count", "")
	m.Set("stale_replicas", float64(stale), "count", "")
	m.Set("repairs_applied", float64(repairs), "count", "")

	chk, err := histcheck.Check(rec, nil)
	if err != nil {
		panic(err) // harness sizing bug: a key exceeded the op cap
	}
	linearizable := 0.0
	if chk.Ok {
		linearizable = 1
	}
	m.Set("hist_ops", float64(chk.Ops), "ops", "")
	m.Set("hist_keys", float64(chk.Keys), "keys", "")
	m.Set("violations", float64(len(chk.Violations)), "keys", "")
	m.Set("linearizable", linearizable, "bool", "")

	// Replica convergence audit: a key is divergent when two replicas
	// disagree on its stored bytes (value or presence). The fleet must
	// converge after one full anti-entropy sweep.
	divergent := func() int {
		n := 0
		for k := uint64(1); k <= consistencyKeys; k++ {
			key := kv.FromUint64(k)
			part := mica.Partition(key, fcfg.Herd.NS)
			var ref []byte
			refOK, first, div := false, true, false
			for _, id := range d.Replicas(key) {
				v, ok := d.Server(id).Partition(part).Get(key)
				if first {
					ref, refOK, first = v, ok, false
					continue
				}
				if ok != refOK || !bytes.Equal(v, ref) {
					div = true
				}
			}
			if div {
				n++
			}
		}
		return n
	}
	m.Set("divergent_before", float64(divergent()), "keys", "")
	d.AntiEntropySweep()
	cl.Eng.Run()
	m.Set("divergent_after", float64(divergent()), "keys", "")
	audited, repaired := d.AntiEntropyStats()
	m.Set("ae_audited", float64(audited), "keys", "")
	m.Set("ae_repaired", float64(repaired), "keys", "")
	m.Set("goodput_mops", stats.Throughput(okOps, cl.Eng.Now()), "Mops", Higher)
	return m, rec
}

// Consistency runs the fleet under the pinned nemesis schedule and
// renders the result. The report is BENCH_consistency.json, with one
// arm, versioned-repair.
func Consistency(spec cluster.Spec, seed int64) (*Table, *Report) {
	cfg := consistencyNemesis(consistencyNemesisSeed)
	rep := newReport("consistency", spec)
	rep.Params["seed"] = fmt.Sprint(seed)
	rep.Params["nemesis_seed"] = fmt.Sprint(cfg.Seed)
	rep.Params["schedule"] = nemesisLine(cfg)
	m, _ := consistencyArm(spec, seed, cfg.Generate())
	rep.Arms["versioned-repair"] = m

	t := &Table{
		ID:    "consistency",
		Title: fmt.Sprintf("Nemesis consistency: versioned replication with read repair — %s", spec.Name),
		Columns: []string{"mode", "issued", "ok", "failed", "hist_ops", "keys",
			"violations", "partial", "stale", "repairs", "ae_fixed", "div_before", "div_after"},
	}
	row := []string{"versioned-repair"}
	for _, name := range []string{"issued", "ok", "failed", "hist_ops", "hist_keys",
		"violations", "partial_writes", "stale_replicas", "repairs_applied", "ae_repaired",
		"divergent_before", "divergent_after"} {
		row = append(row, m.itoa(name))
	}
	t.AddRow(row...)
	t.AddNote("gate: linearizable with replicas converged (div_after=0), byte-identical replay across -count=2")
	t.AddNote("schedule: %s", rep.Params["schedule"])
	return t, rep
}

// ConsistencyScenario is the packaged run used by herdbench and the CI
// gate.
func ConsistencyScenario(spec cluster.Spec) (*Table, *Report) {
	return Consistency(spec, 1)
}
