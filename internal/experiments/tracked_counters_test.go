package experiments

import (
	"testing"

	"herdkv/internal/cluster"
	"herdkv/internal/core"
	"herdkv/internal/fault"
	"herdkv/internal/fleet"
	"herdkv/internal/kv"
	"herdkv/internal/telemetry"
)

// TestTrackedCountersSumInstances checks that every count a layer keeps
// per instance reaches the metrics registry exactly once: after an
// instrumented run, each tracked name's registry value equals the sum
// of the per-instance accessors. A lossy HERD chaos run covers core,
// fault and nic; a crash-restart fleet run with a group-commit WAL
// covers fleet and wal.
func TestTrackedCountersSumInstances(t *testing.T) {
	t.Run("herd", func(t *testing.T) {
		sink := telemetry.New()
		cluster.SetDefaultTelemetry(sink)
		defer cluster.SetDefaultTelemetry(nil)

		sched, err := fault.ParseSchedule(`
			loss    from=0 until=4ms rate=0.03
			corrupt link=1>0 from=0 until=4ms rate=0.02 both
			crash   node=0 at=1ms restart=2ms
		`)
		if err != nil {
			t.Fatal(err)
		}
		spec := cluster.Apt()
		// Context caches a few QPs deep, so the run evicts on both sides.
		spec.NIC.SendCtxCap, spec.NIC.RecvCtxCap = 2, 4
		hcfg := chaosHerdConfig()
		hcfg.AdmissionLimit = 2
		cl, srv, clients := deployHERD(chaosDeploy(spec, sched, 1), hcfg)
		// Re-attaching the registry with a tracer added, as the anatomy
		// target does, must track no cell twice.
		cl.SetTelemetry(&telemetry.Sink{Registry: sink.Registry, Tracer: telemetry.NewTracer()})
		faultDrive(cl.Eng, clients, hcfg.Window, 0.95, 1, sched.End(), func(*chain, kv.Result) {})

		want := map[string]uint64{
			"herd.requests.rejected": srv.Rejected(),
			"herd.shed":              srv.Shed(),
		}
		for _, c := range clients {
			want["herd.retries"] += c.Retries()
			want["herd.responses.duplicate"] += c.DupResponses()
			want["herd.ops.failed"] += c.Failed()
			want["herd.responses.corrupt"] += c.CorruptResponses()
			want["herd.reconnects"] += c.Reconnects()
			want["herd.busy_rx"] += c.BusyResponses()
		}
		inj := cl.Faults()
		want["fault.injected.drop"] = inj.Drops()
		want["fault.injected.corrupt"] = inj.Corrupts()
		want["fault.injected.crash"] = inj.Crashes()
		want["fault.injected.restart"] = inj.Restarts()
		for i := 0; i < cl.Size(); i++ {
			n := cl.Machine(i).Verbs.NIC()
			for side, cc := range map[string]interface {
				Hits() uint64
				Misses() uint64
				Evictions() uint64
			}{"send": n.SendCtxCache(), "recv": n.RecvCtxCache()} {
				want["nic.ctxcache."+side+".hits"] += cc.Hits()
				want["nic.ctxcache."+side+".misses"] += cc.Misses()
				want["nic.ctxcache."+side+".evicts"] += cc.Evictions()
			}
		}
		checkTracked(t, sink, want)
	})

	t.Run("fleet", func(t *testing.T) {
		sink := telemetry.New()
		cluster.SetDefaultTelemetry(sink)
		defer cluster.SetDefaultTelemetry(nil)

		sched, err := fault.ParseSchedule(`
			loss       from=0 until=6ms rate=0.01
			blackout   link=4>1 from=500us until=1500us both
			flushcrash node=0 at=2ms restart=3ms
		`)
		if err != nil {
			t.Fatal(err)
		}
		fcfg := fleet.DefaultConfig()
		fcfg.Herd = chaosHerdConfig()
		fcfg.Herd.Durability = core.DurabilityGroupCommit
		cl, d, clients := deployFleet(chaosDeploy(cluster.Apt(), sched, 1), chaosShards, fcfg)
		faultDrive(cl.Eng, clients, 4, 0.5, 1, sched.End(), func(*chain, kv.Result) {})
		d.AntiEntropySweep()
		cl.Eng.Run()

		want := map[string]uint64{}
		for _, c := range clients {
			want["fleet.ops.failed"] += c.Failed()
			want["fleet.reroutes"] += c.Reroutes()
			want["fleet.writes.partial"] += c.PartialWrites()
			want["fleet.repair.stale"] += c.StaleObserved()
			want["fleet.repair.issued"] += c.RepairsIssued()
			want["fleet.repair.applied"] += c.RepairsApplied()
		}
		want["fleet.antientropy.keys"], want["fleet.antientropy.repaired"] = d.AntiEntropyStats()
		for id := 0; id < chaosShards; id++ {
			l := d.Server(id).WAL()
			want["wal.appends"] += l.Appends()
			want["wal.flushes"] += l.Flushes()
			want["wal.replayed"] += l.Replayed()
		}
		checkTracked(t, sink, want)
	})
}

// checkTracked compares each named counter with its instance sum, and
// requires the run to have produced every event at least once so the
// comparison is not vacuous.
func checkTracked(t *testing.T, sink *telemetry.Sink, want map[string]uint64) {
	t.Helper()
	for name, w := range want {
		got := sink.Counter(name).Value()
		if got != w {
			t.Errorf("%s: registry reads %d, instances sum to %d", name, got, w)
		}
		if w == 0 {
			t.Errorf("%s: the run never produced the event", name)
		}
	}
}
