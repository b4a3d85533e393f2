package experiments

import (
	"bytes"
	"fmt"

	"herdkv/internal/cluster"
	"herdkv/internal/core"
	"herdkv/internal/farm"
	"herdkv/internal/kv"
	"herdkv/internal/mica"
	"herdkv/internal/pilaf"
	"herdkv/internal/sim"
	"herdkv/internal/stats"
	"herdkv/internal/workload"
)

// System names compared in the end-to-end experiments.
const (
	SysHERD    = "HERD"
	SysPilaf   = "Pilaf-em-OPT"
	SysFaRM    = "FaRM-em"
	SysFaRMVar = "FaRM-em-VAR"
)

// AllSystems lists the paper's four compared systems.
var AllSystems = []string{SysPilaf, SysFaRM, SysFaRMVar, SysHERD}

// e2ePerMachine is how many client processes share one client machine
// at every end-to-end point: the paper spreads 3 per machine.
const e2ePerMachine = 3

// E2EConfig describes one end-to-end measurement point.
type E2EConfig struct {
	Spec        cluster.Spec
	System      string
	Clients     int     // client processes, e2ePerMachine to a machine
	ValueSize   int     // SV
	GetFraction float64 // 0.95, 0.50 or 0
	Keys        uint64
	Window      int
	Cores       int // server processes / cores
	Zipf        bool

	// HERD variants (ablation studies).
	RequestPath core.RequestPath // UC WRITE, DC WRITE or SEND/SEND (Section 5.5)
	NoPrefetch  bool             // disable the request pipeline
	InlineCut   int              // response inline cutoff override (0 = default)
}

// DefaultE2E is the paper's end-to-end setup for system on spec: 51
// closed-loop clients, 3 per machine, window 4, 6 server cores, 48 B
// items (SV=32) over a preloaded 48 Ki-key space, 95% GET.
func DefaultE2E(spec cluster.Spec, system string) E2EConfig {
	return E2EConfig{
		Spec: spec, System: system,
		Clients:   51,
		ValueSize: 32, GetFraction: 0.95,
		Keys: 48 * 1024, Window: 4, Cores: 6,
	}
}

// E2EResult is one measurement point's output. Latencies cover every
// op measured over Span, GETs and PUTs alike.
type E2EResult struct {
	Mops      float64
	Mean      sim.Time
	P5, P95   sim.Time
	PerCore   []float64 // HERD: per-partition Mops
	GetMisses uint64    // measured GETs that found no value
	VerifyErr uint64    // sampled GET hits whose value was wrong
	Completed uint64    // ops completed over warmup and span
	Events    uint64    // engine events run over warmup and span
}

// buildSystem constructs the server and clients for cfg on a fresh
// cluster, preloading the whole keyspace, and returns a per-partition
// served-count probe (HERD only). Every system's client is driven
// through the shared kv.KV interface; no per-system glue is needed.
func buildSystem(cfg E2EConfig) (*cluster.Cluster, []kv.KV, func() []uint64) {
	cl := deploySpec{spec: cfg.Spec, seed: 1, clients: cfg.Clients, perMachine: e2ePerMachine}.cluster(1)
	var clients []kv.KV
	var perCore func() []uint64

	switch cfg.System {
	case SysHERD:
		hcfg := core.DefaultConfig()
		hcfg.NS = cfg.Cores
		hcfg.MaxClients = cfg.Clients
		hcfg.Window = cfg.Window
		hcfg.RequestPath = cfg.RequestPath
		hcfg.Prefetch = !cfg.NoPrefetch
		if cfg.InlineCut > 0 {
			hcfg.InlineCutoff = cfg.InlineCut
		}
		hcfg.Mica = mica.Config{
			IndexBuckets: int(cfg.Keys) / 4,
			BucketSlots:  8,
			LogBytes:     int(cfg.Keys) * (18 + cfg.ValueSize) * 2 / cfg.Cores,
		}
		srv, err := core.NewServer(cl.Machine(0), hcfg)
		if err != nil {
			panic(err)
		}
		preloadKeys(cfg.Keys, cfg.ValueSize, srv.Preload)
		clients = asKV(connectAll(cl, 1, cfg.Clients, e2ePerMachine, srv.ConnectClient))
		perCore = func() []uint64 {
			out := make([]uint64, cfg.Cores)
			for p := 0; p < cfg.Cores; p++ {
				st := srv.Partition(p).Stats()
				out[p] = st.Gets + st.Puts
			}
			return out
		}

	case SysPilaf:
		pcfg := pilaf.Config{
			Buckets:     int(cfg.Keys) * 4 / 3, // the paper's 75% fill
			ExtentBytes: int(cfg.Keys) * (18 + cfg.ValueSize) * 4,
			Cores:       cfg.Cores,
			Window:      cfg.Window,
		}
		srv, err := pilaf.NewServer(cl.Machine(0), pcfg)
		if err != nil {
			panic(err)
		}
		preloadKeys(cfg.Keys, cfg.ValueSize, srv.Insert)
		clients = asKV(connectAll(cl, 1, cfg.Clients, e2ePerMachine, srv.ConnectClient))

	case SysFaRM, SysFaRMVar:
		fcfg := farm.Config{
			Mode:        farm.InlineMode,
			Buckets:     int(cfg.Keys) * 4, // stay within hopscotch's comfort zone
			ValueSize:   cfg.ValueSize,
			ExtentBytes: int(cfg.Keys) * (cfg.ValueSize + 8) * 4,
			Cores:       cfg.Cores,
			Window:      cfg.Window,
		}
		if cfg.System == SysFaRMVar {
			fcfg.Mode = farm.VarMode
		}
		srv, err := farm.NewServer(cl.Machine(0), fcfg)
		if err != nil {
			panic(err)
		}
		preloadKeys(cfg.Keys, cfg.ValueSize, srv.Insert)
		clients = asKV(connectAll(cl, 1, cfg.Clients, e2ePerMachine, srv.ConnectClient))

	default:
		panic("unknown system " + cfg.System)
	}
	return cl, clients, perCore
}

// driveE2E starts cfg's closed-loop clients on a driver, staggered:
// client i keeps cfg.Window ops from newGenFor(cfg, i) in flight.
func driveE2E(cfg E2EConfig, cl *cluster.Cluster, clients []kv.KV, observe func(*chain, kv.Result)) *driver {
	d := newDriver(cl.Eng, observe)
	for i, c := range clients {
		d.add(c, newGenFor(cfg, i), cfg.Window, staggered(i, len(clients)))
	}
	return d
}

// newGenFor builds client i's workload generator under cfg.
func newGenFor(cfg E2EConfig, i int) *workload.Generator {
	wc := workload.Config{
		GetFraction: cfg.GetFraction,
		Keys:        cfg.Keys,
		ValueSize:   cfg.ValueSize,
		Seed:        1 + int64(i)*1000,
	}
	if cfg.Zipf {
		wc.ZipfTheta = 0.99
	}
	return workload.NewGenerator(wc)
}

// RunE2E builds cfg's deployment, drives it closed-loop, and measures
// steady state over Span after Warmup. Every 64th op a client issues
// is verified, if it is a GET hit, against the value the generator
// writes. Figs 9–14 and their ablations all measure here.
func RunE2E(cfg E2EConfig) E2EResult { return runE2E(cfg, Warmup, Span) }

// runE2E is RunE2E over the given windows, for the targets that need
// longer ones; it leaves the package windows alone, so targets can run
// concurrently.
func runE2E(cfg E2EConfig, warmup, span sim.Time) E2EResult {
	cl, clients, perCore := buildSystem(cfg)

	var misses, verifyErr uint64
	rec := stats.NewLatencyRecorder(32768)
	measuring := false
	d := driveE2E(cfg, cl, clients, func(ch *chain, r kv.Result) {
		if measuring {
			rec.Record(r.Latency)
			if ch.op.IsGet && r.Status != kv.StatusHit {
				misses++
			}
		}
		if ch.op.IsGet && ch.nop%64 == 0 && r.Status == kv.StatusHit &&
			!bytes.Equal(r.Value, ch.cli.src.Value(ch.op.Key)) {
			verifyErr++
		}
	})

	d.warm(warmup)
	measuring = true
	var beforeCore []uint64
	if perCore != nil {
		beforeCore = perCore()
	}
	ops := d.measure(span)

	res := E2EResult{
		Mops:      stats.Throughput(ops, span),
		Mean:      rec.Mean(),
		P5:        rec.Percentile(5),
		P95:       rec.Percentile(95),
		GetMisses: misses,
		VerifyErr: verifyErr,
		Completed: d.completed,
		Events:    cl.Eng.Processed(),
	}
	if perCore != nil {
		after := perCore()
		res.PerCore = make([]float64, len(after))
		for i := range after {
			res.PerCore[i] = stats.Throughput(after[i]-beforeCore[i], span)
		}
	}
	return res
}

// Fig9Throughput reproduces Figure 9: end-to-end throughput for 48 B
// items under 5%, 50% and 100% PUT workloads, on both clusters.
func Fig9Throughput(_ cluster.Spec) (*Table, *Report) {
	return fig9(cluster.Apt(), cluster.Susitna())
}

// fig9 runs Figure 9 on each of specs; the report's cluster is their
// names joined by "+".
func fig9(specs ...cluster.Spec) (*Table, *Report) {
	t := &Table{
		ID:      "fig9",
		Title:   "End-to-end throughput (Mops), 48 B items (SK=16, SV=32)",
		Columns: []string{"cluster", "PUT%", SysPilaf, SysFaRM, SysFaRMVar, SysHERD},
	}
	rep := newReport("fig9", specs[0])
	for i, spec := range specs {
		if i > 0 {
			rep.Cluster += "+" + spec.Name
		}
		for _, putPct := range []int{5, 50, 100} {
			row := []string{spec.Name, fmt.Sprintf("%d%%", putPct)}
			for _, sys := range AllSystems {
				cfg := DefaultE2E(spec, sys)
				cfg.GetFraction = 1 - float64(putPct)/100
				row = append(row, rep.Arm(fmt.Sprintf("%s/put=%d/%s", spec.Name, putPct, sys)).e2e(RunE2E(cfg)))
			}
			t.AddRow(row...)
		}
	}
	// "over 2X higher than FaRM-KV and Pilaf", read-intensive on the
	// first cluster (Apt).
	first := func(sys string) float64 { return rep.Arms[specs[0].Name+"/put=5/"+sys]["mops"].Value }
	shape := rep.Arm("shape")
	shape.Set("herd_over_pilaf", ratio(first(SysHERD), first(SysPilaf)), "x", Higher)
	shape.Set("herd_over_farm_var", ratio(first(SysHERD), first(SysFaRMVar)), "x", Higher)
	t.AddNote("51 client processes (3 per machine), 6 server cores, window 4")
	return t, rep
}

// Fig10ValueSize reproduces Figure 10: read-intensive throughput across
// value sizes.
func Fig10ValueSize(spec cluster.Spec) (*Table, *Report) {
	t := &Table{
		ID:      "fig10",
		Title:   fmt.Sprintf("Throughput (Mops) vs value size, read-intensive — %s", spec.Name),
		Columns: []string{"value", SysHERD, SysPilaf, SysFaRM, SysFaRMVar},
	}
	rep := newReport("fig10", spec)
	// The paper sweeps to 1024; HERD's 1 KB slot leaves 1000 B for the
	// value after the tag, LEN and keyhash, so the top point is 1000 here.
	for _, sv := range []int{4, 8, 16, 32, 64, 128, 256, 512, 1000} {
		row := []string{fmt.Sprintf("%d", sv)}
		for _, sys := range []string{SysHERD, SysPilaf, SysFaRM, SysFaRMVar} {
			cfg := DefaultE2E(spec, sys)
			cfg.ValueSize = sv
			cfg.Keys = 16 * 1024 // keep the largest tables in memory bounds
			row = append(row, rep.Arm(fmt.Sprintf("sv=%d/%s", sv, sys)).e2e(RunE2E(cfg)))
		}
		t.AddRow(row...)
	}
	t.AddNote("16 B keys; FaRM-em inlines values so its READ size grows as 6*(16+SV)")
	return t, rep
}

// fig11Clients is Figure 11's load sweep: client processes per system.
var fig11Clients = []int{1, 2, 4, 8, 16, 32, 51}

// Fig11LatencyThroughput reproduces Figure 11: mean latency (with 5th
// and 95th percentiles) as load increases, read-intensive 48 B items.
func Fig11LatencyThroughput(spec cluster.Spec) (*Table, *Report) {
	t := &Table{
		ID:      "fig11",
		Title:   fmt.Sprintf("Latency vs throughput, 48 B read-intensive — %s", spec.Name),
		Columns: []string{"system", "clients", "Mops", "mean_us", "p5_us", "p95_us"},
	}
	rep := newReport("fig11", spec)
	for _, sys := range AllSystems {
		for _, nc := range fig11Clients {
			cfg := DefaultE2E(spec, sys)
			cfg.Clients = nc
			r := RunE2E(cfg)
			m := rep.Arm(fmt.Sprintf("%s/clients=%d", sys, nc))
			t.AddRow(sys, fmt.Sprintf("%d", nc), m.e2e(r), m.us("mean_us", r.Mean.Microseconds()),
				m.us("p5_us", r.P5.Microseconds()), m.us("p95_us", r.P95.Microseconds()))
		}
	}
	return t, rep
}
