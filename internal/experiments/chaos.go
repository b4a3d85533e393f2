package experiments

import (
	"fmt"

	"herdkv/internal/cluster"
	"herdkv/internal/core"
	"herdkv/internal/fault"
	"herdkv/internal/kv"
	"herdkv/internal/mica"
	"herdkv/internal/sim"
	"herdkv/internal/stats"
	"herdkv/internal/workload"
)

// chaosBuckets is the time resolution of the availability table.
const chaosBuckets = 10

// chaosRetryTimeout is the base retry timer for chaos runs: comfortably
// above worst-case response latency so duplicates stay rare, far below
// the bucket width so recovery is visible in the table.
const chaosRetryTimeout = 25 * sim.Microsecond

// Shape shared by the fault runs (Chaos, FleetChaos, durability).
// chaosShards sizes the fleets.
const (
	chaosShards     = 4
	chaosClients    = 6
	chaosPerMachine = 3
	chaosKeys       = 4096
	chaosValueSize  = 32
)

// chaosDeploy is the fault runs' deployment shape under sched.
func chaosDeploy(spec cluster.Spec, sched *fault.Schedule, seed int64) deploySpec {
	spec.Faults = sched
	return deploySpec{spec: spec, seed: seed, keys: chaosKeys, valueSize: chaosValueSize,
		clients: chaosClients, perMachine: chaosPerMachine}
}

// chaosHerdConfig is the HERD server, or fleet member, config of the
// fault runs: two server processes, the chaos retry timer and a MICA
// sized for the chaos keyspace.
func chaosHerdConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.NS = 2
	cfg.RetryTimeout = chaosRetryTimeout
	cfg.Mica = mica.Config{
		IndexBuckets: chaosKeys / 4,
		BucketSlots:  8,
		LogBytes:     chaosKeys * (18 + chaosValueSize) * 2 / cfg.NS,
	}
	return cfg
}

// faultDrive drives clients closed-loop through a fault run: client i
// keeps window ops in flight from i µs, getFraction of them GETs over
// the chaos keyspace. After runFor the clients stop issuing and the
// engine drains, so every op has resolved, served or terminally failed,
// when faultDrive returns.
func faultDrive[C kv.KV](eng *sim.Engine, clients []C, window int, getFraction float64,
	seed int64, runFor sim.Time, observe func(*chain, kv.Result)) *driver {
	d := newDriver(eng, observe)
	for i, c := range clients {
		gen := workload.NewGenerator(workload.Config{
			GetFraction: getFraction,
			Keys:        chaosKeys,
			ValueSize:   chaosValueSize,
			Seed:        seed + int64(i)*1000,
		})
		d.add(c, gen, window, sim.Time(i)*sim.Microsecond)
	}
	eng.RunFor(runFor)
	d.stopped = true
	eng.Run()
	return d
}

// chaosTable runs faultDrive over sched's window (10 ms when it has no
// end) and renders availability through time: one
// t_ms/issued/ok/err/avail%/p99_us row per bucket, each also an arm of
// rep, and rep's "total" arm sums the counts. Ops bucket by issue time;
// an op that spans a bucket boundary counts where it was issued.
func chaosTable[C kv.KV](id, title string, rep *Report, eng *sim.Engine, clients []C, window int,
	getFraction float64, seed int64, sched *fault.Schedule) *Table {
	runFor := sched.End()
	if runFor == 0 {
		runFor = 10 * sim.Millisecond
	}
	bucketLen := runFor / chaosBuckets
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
	d := faultDrive(eng, clients, window, getFraction, seed, runFor, func(ch *chain, r kv.Result) {
		b := bucketOf(ch.at)
		b.issued++
		if r.Err != nil {
			b.err++
		} else {
			b.ok++
			b.lat.Record(r.Latency)
		}
	})
	for _, cli := range d.clients {
		for i := range cli.chains {
			if ch := &cli.chains[i]; ch.inFlight { // hung: issued, never resolved
				bucketOf(ch.at).issued++
			}
		}
	}

	t := &Table{ID: id, Title: title, Columns: []string{"t_ms", "issued", "ok", "err", "avail%", "p99_us"}}
	var issued, ok, errs uint64
	counts := func(m Metrics, issued, ok, errs uint64) {
		m.Set("issued", float64(issued), "ops", Higher)
		m.Set("ok", float64(ok), "ops", Higher)
		m.Set("err", float64(errs), "ops", Lower)
	}
	for i := range buckets {
		b := &buckets[i]
		issued += b.issued
		ok += b.ok
		errs += b.err
		span := fmt.Sprintf("%.1f-%.1f", (sim.Time(i)*bucketLen).Microseconds()/1000,
			(sim.Time(i+1)*bucketLen).Microseconds()/1000)
		m := rep.Arm("t_ms=" + span)
		counts(m, b.issued, b.ok, b.err)
		avail, p99 := "-", "-"
		if b.ok+b.err > 0 {
			pct := 100 * float64(b.ok) / float64(b.ok+b.err)
			m.Set("avail_pct", pct, "%", Higher)
			avail = fmt.Sprintf("%.1f", pct)
		}
		if b.ok > 0 {
			p99 = m.us("p99_us", b.lat.Percentile(99).Microseconds())
		}
		t.AddRow(span, fmt.Sprintf("%d", b.issued), fmt.Sprintf("%d", b.ok),
			fmt.Sprintf("%d", b.err), avail, p99)
	}
	counts(rep.Arm("total"), issued, ok, errs)
	return t
}

// Chaos drives a HERD deployment closed-loop while sched injects faults,
// and reports availability and tail latency through time. Every issued
// operation is accounted for: it either completes with a served response
// or fails terminally after its retry budget — the run drains to zero
// in-flight operations before reporting, and a nonzero hung count is a
// bug.
//
// The run is deterministic: the same (spec, schedule, seed) triple
// produces a byte-identical table and report.
func Chaos(spec cluster.Spec, sched *fault.Schedule, seed int64) (*Table, *Report) {
	hcfg := chaosHerdConfig()
	cl, srv, clients := deployHERD(chaosDeploy(spec, sched, seed), hcfg)

	rep := newReport("chaos", spec)
	t := chaosTable("chaos", fmt.Sprintf("Availability through faults — %s", spec.Name),
		rep, cl.Eng, clients, hcfg.Window, 0.95, seed, sched)

	var retries, reconnects, dups, corrupt, inflight uint64
	for _, c := range clients {
		retries += c.Retries()
		reconnects += c.Reconnects()
		dups += c.DupResponses()
		corrupt += c.CorruptResponses()
		inflight += uint64(c.Inflight())
	}
	total := rep.Arm("total")
	total.Set("hung", float64(inflight), "ops", Lower)
	t.AddNote("ops: %s issued, %s ok, %s terminal err, %d hung (must be 0)",
		total.itoa("issued"), total.itoa("ok"), total.itoa("err"), inflight)
	t.AddNote("client recovery: %d retries, %d reconnect handshakes, %d duplicate and %d corrupt responses discarded",
		retries, reconnects, dups, corrupt)
	t.AddNote("server: %d requests rejected by integrity checks", srv.Rejected())
	if inj := cl.Faults(); inj != nil {
		t.AddNote("injected: %d drops, %d corruptions, %d crashes, %d restarts",
			inj.Drops(), inj.Corrupts(), inj.Crashes(), inj.Restarts())
	}
	return t, rep
}

// ChaosScenario is the packaged chaos run: 5%% packet loss throughout,
// with the server crashing at 10 ms and restarting at 20 ms of a 40 ms
// window. The table shows availability collapse during the outage and
// recovery after the restart handshakes complete.
func ChaosScenario(spec cluster.Spec) (*Table, *Report) {
	return Chaos(spec, mustSchedule(`
		loss  from=0 until=40ms rate=0.05
		crash node=0 at=10ms restart=20ms
	`), 1)
}

// mustSchedule parses a packaged fault script; an error is a bug in the
// script.
func mustSchedule(script string) *fault.Schedule {
	sched, err := fault.ParseSchedule(script)
	if err != nil {
		panic(err)
	}
	return sched
}
