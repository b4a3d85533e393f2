package experiments

import (
	"fmt"

	"herdkv/internal/cluster"
	"herdkv/internal/core"
	"herdkv/internal/fault"
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

// Chaos drives a HERD deployment closed-loop while sched injects faults,
// and reports availability and tail latency through time. Every issued
// operation is accounted for: it either completes with a served response
// or fails terminally after its retry budget — the run drains to zero
// in-flight operations before reporting, and a nonzero hung count is a
// bug. Rows bucket operations by issue time; an op that spans a bucket
// boundary counts where it was issued.
//
// The run is deterministic: the same (spec, schedule, seed) triple
// produces a byte-identical table.
func Chaos(spec cluster.Spec, sched *fault.Schedule, seed int64) *Table {
	const (
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
	machines := 1 + (nClients+perMachine-1)/perMachine
	cl := cluster.New(spec, machines, seed)

	hcfg := core.DefaultConfig()
	hcfg.NS = 2
	hcfg.MaxClients = nClients
	hcfg.RetryTimeout = chaosRetryTimeout
	hcfg.Mica = mica.Config{
		IndexBuckets: keys / 4,
		BucketSlots:  8,
		LogBytes:     keys * (18 + valueSize) * 2 / hcfg.NS,
	}
	srv, err := core.NewServer(cl.Machine(0), hcfg)
	if err != nil {
		panic(err)
	}
	preloadKeys(keys, valueSize, srv.Preload)
	if inj := cl.Faults(); inj != nil {
		inj.SetCrashTarget(0, srv)
		inj.Arm()
	}

	clients := make([]*core.Client, nClients)
	for i := range clients {
		c, err := srv.ConnectClient(cl.Machine(1 + i/perMachine))
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
			GetFraction: 0.95,
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
			fin := func(r core.Result) {
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
		cl.Eng.At(stagger, func() { pump(hcfg.Window, issue) })
	}

	// Run the scripted window, stop issuing, then drain: every in-flight
	// op must resolve — served, or terminal after its retry budget.
	cl.Eng.RunFor(runFor)
	stopped = true
	cl.Eng.Run()

	var issued, okOps, errOps uint64
	t := &Table{
		ID:      "chaos",
		Title:   fmt.Sprintf("Availability through faults — %s", spec.Name),
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

	var retries, reconnects, dups, corrupt, inflight uint64
	for _, c := range clients {
		retries += c.Retries()
		reconnects += c.Reconnects()
		dups += c.DupResponses()
		corrupt += c.CorruptResponses()
		inflight += uint64(c.Inflight())
	}
	hung := inflight
	t.AddNote("ops: %d issued, %d ok, %d terminal err, %d hung (must be 0)",
		issued, okOps, errOps, hung)
	t.AddNote("client recovery: %d retries, %d reconnect handshakes, %d duplicate and %d corrupt responses discarded",
		retries, reconnects, dups, corrupt)
	t.AddNote("server: %d requests rejected by integrity checks", srv.Rejected())
	if inj := cl.Faults(); inj != nil {
		t.AddNote("injected: %d drops, %d corruptions, %d crashes, %d restarts",
			inj.Drops(), inj.Corrupts(), inj.Crashes(), inj.Restarts())
	}
	return t
}

// ChaosScenario is the packaged chaos run: 5%% packet loss throughout,
// with the server crashing at 10 ms and restarting at 20 ms of a 40 ms
// window. The table shows availability collapse during the outage and
// recovery after the restart handshakes complete.
func ChaosScenario(spec cluster.Spec) *Table {
	sched, err := fault.ParseSchedule(`
		loss  from=0 until=40ms rate=0.05
		crash node=0 at=10ms restart=20ms
	`)
	if err != nil {
		panic(err)
	}
	return Chaos(spec, sched, 1)
}
