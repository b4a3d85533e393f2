package experiments

import (
	"fmt"

	"herdkv/internal/cluster"
	"herdkv/internal/fault"
	"herdkv/internal/fleet"
)

// FleetChaos drives a replicated fleet closed-loop while sched injects
// faults, and reports fleet-level availability through time. The
// contract under test is stronger than single-server Chaos: with R=2
// replication, a crash-and-restart of one shard must cost ZERO
// fleet-level failures — every operation is served by a surviving
// replica (reads fail over; writes fan out), with retries allowed.
//
// The run is deterministic: the same (spec, schedule, seed) triple
// produces a byte-identical table and report.
func FleetChaos(spec cluster.Spec, sched *fault.Schedule, seed int64) (*Table, *Report) {
	fcfg := fleet.DefaultConfig()
	fcfg.Herd = chaosHerdConfig()
	cl, d, clients := deployFleet(chaosDeploy(spec, sched, seed), chaosShards, fcfg)

	// A mixed workload: fan-out writes under fire. Every in-flight op
	// must resolve, and none may fail at fleet level.
	rep := newReport("fleet-chaos", spec)
	t := chaosTable("fleetchaos",
		fmt.Sprintf("Fleet availability through faults (R=%d) — %s", d.Replication(), spec.Name),
		rep, cl.Eng, clients, fcfg.Herd.Window, 0.50, seed, sched)

	var failed, reroutes, inflight uint64
	for _, c := range clients {
		failed += c.Failed()
		reroutes += c.Reroutes()
		inflight += uint64(c.Inflight())
	}
	total := rep.Arm("total")
	total.Set("failed", float64(failed), "ops", Lower)
	total.Set("hung", float64(inflight), "ops", Lower)
	t.AddNote("ops: %s issued, %s ok, %d fleet-level failures (must be 0), %d hung (must be 0)",
		total.itoa("issued"), total.itoa("ok"), failed, inflight)
	t.AddNote("failover: %d reroutes", reroutes)
	if inj := cl.Faults(); inj != nil {
		t.AddNote("injected: %d crashes, %d restarts", inj.Crashes(), inj.Restarts())
	}
	return t, rep
}

// FleetChaosScenario is the packaged fleet chaos run: a 4-shard R=2
// fleet with shard 0 crashing at 2 ms and restarting at 4 ms of an 8 ms
// window. Unlike the single-server scenario, availability holds at 100%
// throughout: replicas absorb the outage.
func FleetChaosScenario(spec cluster.Spec) (*Table, *Report) {
	return FleetChaos(spec, fleetChaosSchedule(), 1)
}

// fleetChaosSchedule is the crash-and-restart script used by the
// packaged scenario and the replay tests. Crash-only (no packet loss):
// with loss, an unlucky op could exhaust its budget on BOTH replicas,
// which is legitimate behavior but breaks the zero-failures invariant
// this scenario demonstrates.
func fleetChaosSchedule() *fault.Schedule {
	sched, err := fault.ParseSchedule(`
		crash node=0 at=2ms restart=4ms
	`)
	if err != nil {
		panic(err)
	}
	return sched
}
