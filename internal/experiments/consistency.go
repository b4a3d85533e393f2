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
// BENCH_consistency: the same fleet and workload run twice under one
// generated chaos schedule — once with the legacy first-ack write path
// (a straggler replica that misses a write diverges forever) and once
// with versioned writes plus read repair and anti-entropy. Every client
// operation is recorded with histcheck and the history is checked for
// per-key linearizability after the drain.
//
// The schedule is not hand-written: a nemesis seed search runs the
// legacy arm under generated schedules until the checker finds a stale
// read, then fault.Minimize shrinks the failing schedule to its
// essential events. The repaired arm replays the same failing schedule
// and must certify linearizable with all replica sets converged.
//
// Both arms run DurabilitySync so a crashed shard restarts warm: the
// divergence under test comes from the network (first-ack swallowing a
// blacked-out straggler), not from crash data loss.
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
// the divergence-seeding fault first-ack cannot see.
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

// consistencyArm runs one arm under the given schedule and checks the
// recorded history. The stale/repair counters are zero for the
// first-ack arm, which has no read repair; its anti-entropy counters
// count only the crashed shard's recovery catch-up, which shares the
// reconciliation queue.
func consistencyArm(spec cluster.Spec, seed int64, sched *fault.Schedule, repair bool) Metrics {
	fcfg := fleet.DefaultConfig()
	fcfg.Herd = chaosHerdConfig()
	fcfg.Herd.Durability = core.DurabilitySync
	fcfg.Herd.Mica = mica.Config{IndexBuckets: 1 << 8, BucketSlots: 8, LogBytes: 1 << 20}
	fcfg.MigrationBatch = 32
	fcfg.MigrationInterval = 4 * sim.Microsecond
	fcfg.ReadRepair = repair // a synonym for Versioned
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
	// disagree on its stored bytes (value or presence). The repaired arm
	// must converge after one full anti-entropy sweep; the first-ack arm
	// reconciles only recovery catch-up keys, so a straggler's
	// divergence is permanent.
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
	return m
}

// Consistency searches nemesis seeds for a schedule under which the
// first-ack arm serves a provably stale read, minimizes it, replays
// both arms under the failing schedule, and renders the comparison. The
// report is BENCH_consistency.json: one arm per write path plus a
// "search" arm sizing the seed search and the minimization.
func Consistency(spec cluster.Spec, seed int64) (*Table, *Report) {
	const maxSeeds = 24
	rep := newReport("consistency", spec)
	rep.Params["seed"] = fmt.Sprint(seed)
	search := rep.Arm("search")
	stale := func(s *fault.Schedule) bool {
		return consistencyArm(spec, seed, s, false)["violations"].Value > 0
	}

	var failing *fault.Schedule
	var cfg fault.NemesisConfig
	for k := 0; k < maxSeeds; k++ {
		cfg = consistencyNemesis(seed + int64(k))
		s := cfg.Generate()
		search.Set("seeds_tried", float64(k+1), "count", "")
		rep.Params["nemesis_seed"] = fmt.Sprint(cfg.Seed)
		if stale(s) {
			failing = s
			break
		}
	}
	if failing == nil {
		// No generated schedule broke first-ack within the search
		// budget: report the last arm pair and let the gate fail loudly.
		failing = cfg.Generate()
	}
	rep.Params["schedule"] = nemesisLine(cfg)
	search.Set("schedule_events", float64(len(failing.Events)), "count", "")
	search.Set("minimized_events", float64(len(fault.Minimize(failing, stale).Events)), "count", "")
	rep.Arms["first-ack"] = consistencyArm(spec, seed, failing, false)
	rep.Arms["versioned-repair"] = consistencyArm(spec, seed, failing, true)

	t := &Table{
		ID: "consistency",
		Title: fmt.Sprintf(
			"Nemesis consistency: first-ack divergence vs versioned read repair — %s", spec.Name),
		Columns: []string{"mode", "issued", "ok", "failed", "hist_ops", "keys",
			"violations", "partial", "stale", "repairs", "ae_fixed", "div_before", "div_after"},
	}
	for _, mode := range []string{"first-ack", "versioned-repair"} {
		row := []string{mode}
		for _, name := range []string{"issued", "ok", "failed", "hist_ops", "hist_keys",
			"violations", "partial_writes", "stale_replicas", "repairs_applied", "ae_repaired",
			"divergent_before", "divergent_after"} {
			row = append(row, rep.Arms[mode].itoa(name))
		}
		t.AddRow(row...)
	}
	t.AddNote("gate: first-ack arm non-linearizable (violations>0), versioned arm linearizable with replicas converged (div_after=0), byte-identical replay across -count=2")
	t.AddNote("nemesis seed %s found in %s tries; failing schedule %s events, %s after minimization",
		rep.Params["nemesis_seed"], search.itoa("seeds_tried"),
		search.itoa("schedule_events"), search.itoa("minimized_events"))
	t.AddNote("schedule: %s", rep.Params["schedule"])
	return t, rep
}

// ConsistencyScenario is the packaged run used by herdbench and the CI
// gate.
func ConsistencyScenario(spec cluster.Spec) (*Table, *Report) {
	return Consistency(spec, 1)
}
