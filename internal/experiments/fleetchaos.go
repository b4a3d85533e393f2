package experiments

import (
	"fmt"

	"herdkv/internal/cluster"
	"herdkv/internal/core"
	"herdkv/internal/fault"
	"herdkv/internal/fleet"
	"herdkv/internal/kv"
	"herdkv/internal/mica"
	"herdkv/internal/sim"
	"herdkv/internal/stats"
	"herdkv/internal/workload"
)

// FleetChaos drives a replicated fleet closed-loop while sched injects
// faults, and reports fleet-level availability through time. The
// contract under test is stronger than single-server Chaos: with R=2
// replication, a crash-and-restart of one shard must cost ZERO
// fleet-level failures — every operation is served by a surviving
// replica (reads fail over; writes fan out), with retries allowed.
//
// The run is deterministic: the same (spec, schedule, seed) triple
// produces a byte-identical table.
func FleetChaos(spec cluster.Spec, sched *fault.Schedule, seed int64) *Table {
	const (
		nShards    = 4
		nClients   = 6
		perMachine = 3
		keys       = 4096
		valueSize  = 32
	)
	runFor := sched.End()
	if runFor == 0 {
		runFor = 10 * sim.Millisecond
	}
	bucketLen := runFor / chaosBuckets

	spec.Faults = sched
	machines := nShards + (nClients+perMachine-1)/perMachine
	cl := cluster.New(spec, machines, seed)

	fcfg := fleet.DefaultConfig()
	fcfg.Herd = core.DefaultConfig()
	fcfg.Herd.NS = 2
	fcfg.Herd.MaxClients = nClients
	fcfg.Herd.RetryTimeout = chaosRetryTimeout
	fcfg.Herd.Mica = mica.Config{
		IndexBuckets: keys / 4,
		BucketSlots:  8,
		LogBytes:     keys * (18 + valueSize) * 2 / fcfg.Herd.NS,
	}
	servers := make([]*cluster.Machine, nShards)
	for i := range servers {
		servers[i] = cl.Machine(i)
	}
	d, err := fleet.NewDeployment(servers, fcfg)
	if err != nil {
		panic(err)
	}
	preloadKeys(keys, valueSize, d.Preload)
	if inj := cl.Faults(); inj != nil {
		d.RegisterCrashTargets(inj)
		inj.Arm()
	}

	clients := make([]*fleet.Client, nClients)
	for i := range clients {
		c, err := d.ConnectClient(cl.Machine(nShards + i/perMachine))
		if err != nil {
			panic(err)
		}
		clients[i] = c
	}

	type bucket struct {
		issued, ok, err uint64
		lat             *stats.LatencyRecorder
	}
	buckets := make([]bucket, chaosBuckets)
	for i := range buckets {
		buckets[i] = bucket{lat: stats.NewLatencyRecorder(16384)}
	}
	bucketOf := func(t sim.Time) *bucket {
		i := int(t / bucketLen)
		if i >= chaosBuckets {
			i = chaosBuckets - 1
		}
		return &buckets[i]
	}

	stopped := false
	for i, c := range clients {
		c := c
		gen := workload.NewGenerator(workload.Config{
			GetFraction: 0.50, // mixed workload: fan-out writes under fire
			Keys:        keys,
			ValueSize:   valueSize,
			Seed:        seed + int64(i)*1000,
		})
		issue := func(done func()) {
			if stopped {
				return // let the closed loop die out at the cutoff
			}
			op := gen.Next()
			b := bucketOf(cl.Eng.Now())
			b.issued++
			fin := func(r kv.Result) {
				if r.Err != nil {
					b.err++
				} else {
					b.ok++
					b.lat.Record(r.Latency)
				}
				done()
			}
			if op.IsGet {
				c.Get(op.Key, fin)
			} else {
				c.Put(op.Key, gen.Value(op.Key), fin)
			}
		}
		stagger := sim.Time(i) * sim.Microsecond
		cl.Eng.At(stagger, func() { pump(fcfg.Herd.Window, issue) })
	}

	// Run the scripted window, stop issuing, then drain: every in-flight
	// op must resolve, and none may fail at fleet level.
	cl.Eng.RunFor(runFor)
	stopped = true
	cl.Eng.Run()

	var issued, okOps, errOps uint64
	t := &Table{
		ID:      "fleetchaos",
		Title:   fmt.Sprintf("Fleet availability through faults (R=%d) — %s", d.Replication(), spec.Name),
		Columns: []string{"t_ms", "issued", "ok", "err", "avail%", "p99_us"},
	}
	for i := range buckets {
		b := &buckets[i]
		issued += b.issued
		okOps += b.ok
		errOps += b.err
		avail, p99 := "-", "-"
		if b.ok+b.err > 0 {
			avail = fmt.Sprintf("%.1f", 100*float64(b.ok)/float64(b.ok+b.err))
		}
		if b.ok > 0 {
			p99 = cell(b.lat.Percentile(99).Microseconds())
		}
		t.AddRow(
			fmt.Sprintf("%.1f-%.1f", (sim.Time(i)*bucketLen).Microseconds()/1000,
				(sim.Time(i+1)*bucketLen).Microseconds()/1000),
			fmt.Sprintf("%d", b.issued), fmt.Sprintf("%d", b.ok),
			fmt.Sprintf("%d", b.err), avail, p99,
		)
	}

	var failed, reroutes, replicaReads, inflight uint64
	for _, c := range clients {
		failed += c.Failed()
		reroutes += c.Reroutes()
		replicaReads += c.ReplicaReads()
		inflight += uint64(c.Inflight())
	}
	t.AddNote("ops: %d issued, %d ok, %d fleet-level failures (must be 0), %d hung (must be 0)",
		issued, okOps, failed, inflight)
	t.AddNote("failover: %d reroutes, %d reads served by a non-primary replica", reroutes, replicaReads)
	if inj := cl.Faults(); inj != nil {
		t.AddNote("injected: %d crashes, %d restarts", inj.Crashes(), inj.Restarts())
	}
	_ = errOps
	return t
}

// FleetChaosScenario is the packaged fleet chaos run: a 4-shard R=2
// fleet with shard 0 crashing at 2 ms and restarting at 4 ms of an 8 ms
// window. Unlike the single-server scenario, availability holds at 100%
// throughout: replicas absorb the outage.
func FleetChaosScenario(spec cluster.Spec) *Table {
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
