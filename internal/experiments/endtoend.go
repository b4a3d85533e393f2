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

// e2eConfig describes one end-to-end measurement point.
type e2eConfig struct {
	spec        cluster.Spec
	system      string
	clients     int     // client processes
	perMachine  int     // client processes per machine (paper: 3)
	valueSize   int     // SV
	getFraction float64 // 0.95, 0.50 or 0
	keys        uint64
	window      int
	cores       int // server processes / cores
	zipf        bool
	seed        int64

	// HERD variants (ablation studies).
	sendMode   bool // SEND/SEND architecture (Section 5.5)
	dcMode     bool // Dynamically Connected requests (Section 5.5)
	noPrefetch bool // disable the request pipeline
	inlineCut  int  // response inline cutoff override (0 = default)
}

func defaultE2E(spec cluster.Spec, system string) e2eConfig {
	return e2eConfig{
		spec: spec, system: system,
		clients: 51, perMachine: 3,
		valueSize: 32, getFraction: 0.95,
		keys: 48 * 1024, window: 4, cores: 6, seed: 1,
	}
}

// e2eResult is one measurement point's output.
type e2eResult struct {
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
func buildSystem(cfg e2eConfig) (*cluster.Cluster, []kv.KV, func() []uint64) {
	machines := 1 + (cfg.clients+cfg.perMachine-1)/cfg.perMachine
	cl := cluster.New(cfg.spec, machines, cfg.seed)
	clientMachine := func(i int) *cluster.Machine { return cl.Machine(1 + i/cfg.perMachine) }
	clients := make([]kv.KV, cfg.clients)
	var perCore func() []uint64

	switch cfg.system {
	case SysHERD:
		hcfg := core.DefaultConfig()
		hcfg.NS = cfg.cores
		hcfg.MaxClients = cfg.clients
		hcfg.Window = cfg.window
		hcfg.UseSendRequests = cfg.sendMode
		hcfg.UseDC = cfg.dcMode
		hcfg.Prefetch = !cfg.noPrefetch
		if cfg.inlineCut > 0 {
			hcfg.InlineCutoff = cfg.inlineCut
		}
		hcfg.Mica = mica.Config{
			IndexBuckets: int(cfg.keys) / 4,
			BucketSlots:  8,
			LogBytes:     int(cfg.keys) * (18 + cfg.valueSize) * 2 / cfg.cores,
		}
		srv, err := core.NewServer(cl.Machine(0), hcfg)
		if err != nil {
			panic(err)
		}
		preloadKeys(cfg.keys, cfg.valueSize, srv.Preload)
		for i := range clients {
			c, err := srv.ConnectClient(clientMachine(i))
			if err != nil {
				panic(err)
			}
			clients[i] = c
		}
		perCore = func() []uint64 {
			out := make([]uint64, cfg.cores)
			for p := 0; p < cfg.cores; p++ {
				st := srv.Partition(p).Stats()
				out[p] = st.Gets + st.Puts
			}
			return out
		}

	case SysPilaf:
		pcfg := pilaf.Config{
			Buckets:     int(cfg.keys) * 4 / 3, // the paper's 75% fill
			ExtentBytes: int(cfg.keys) * (18 + cfg.valueSize) * 4,
			Cores:       cfg.cores,
			Window:      cfg.window,
		}
		srv, err := pilaf.NewServer(cl.Machine(0), pcfg)
		if err != nil {
			panic(err)
		}
		preloadKeys(cfg.keys, cfg.valueSize, srv.Insert)
		for i := range clients {
			c, err := srv.ConnectClient(clientMachine(i))
			if err != nil {
				panic(err)
			}
			clients[i] = c
		}

	case SysFaRM, SysFaRMVar:
		fcfg := farm.Config{
			Mode:        farm.InlineMode,
			Buckets:     int(cfg.keys) * 4, // stay within hopscotch's comfort zone
			ValueSize:   cfg.valueSize,
			ExtentBytes: int(cfg.keys) * (cfg.valueSize + 8) * 4,
			Cores:       cfg.cores,
			Window:      cfg.window,
		}
		if cfg.system == SysFaRMVar {
			fcfg.Mode = farm.VarMode
		}
		srv, err := farm.NewServer(cl.Machine(0), fcfg)
		if err != nil {
			panic(err)
		}
		preloadKeys(cfg.keys, cfg.valueSize, srv.Insert)
		for i := range clients {
			c, err := srv.ConnectClient(clientMachine(i))
			if err != nil {
				panic(err)
			}
			clients[i] = c
		}

	default:
		panic("unknown system " + cfg.system)
	}
	return cl, clients, perCore
}

// driveE2E starts cfg's closed-loop clients on the driver: client i
// keeps cfg.window ops from newGenFor(cfg, i) in flight.
func driveE2E(cfg e2eConfig, cl *cluster.Cluster, clients []kv.KV, observe func(*chain, kv.Result)) {
	d := newDriver(cl.Eng, observe)
	// Stagger client start times: real client fleets do not begin in
	// lockstep, and a synchronized start puts the closed-loop system into
	// a long oscillatory transient at high client counts.
	stagger := 40 * sim.Microsecond / sim.Time(len(clients)+1)
	for i, c := range clients {
		d.add(c, newGenFor(cfg, i), cfg.window, sim.Time(i)*stagger)
	}
}

// newGenFor builds client i's workload generator under cfg.
func newGenFor(cfg e2eConfig, i int) *workload.Generator {
	return workload.NewGenerator(workload.Config{
		GetFraction: cfg.getFraction,
		Keys:        cfg.keys,
		ZipfTheta:   ternary(cfg.zipf, 0.99, 0),
		ValueSize:   cfg.valueSize,
		Seed:        cfg.seed + int64(i)*1000,
	})
}

// runE2E builds cfg's deployment, drives it closed-loop, and measures
// steady state. Every 64th op a client issues is verified, if it is a
// GET hit, against the value the generator writes.
func runE2E(cfg e2eConfig) e2eResult {
	cl, clients, perCore := buildSystem(cfg)

	var completed, hits, gets, verifyErr uint64
	rec := stats.NewLatencyRecorder(32768)
	measuring := false
	driveE2E(cfg, cl, clients, func(ch *chain, r kv.Result) {
		completed++
		if measuring {
			rec.Record(r.Latency)
			if ch.op.IsGet {
				gets++
				if r.Status == kv.StatusHit {
					hits++
				}
			}
		}
		if ch.op.IsGet && ch.nop%64 == 0 && r.Status == kv.StatusHit &&
			!bytes.Equal(r.Value, ch.cli.src.Value(ch.op.Key)) {
			verifyErr++
		}
	})

	cl.Eng.RunFor(Warmup)
	measuring = true
	var beforeCore []uint64
	if perCore != nil {
		beforeCore = perCore()
	}
	start := completed
	cl.Eng.RunFor(Span)

	res := e2eResult{
		Mops:      stats.Throughput(completed-start, Span),
		Mean:      rec.Mean(),
		P5:        rec.Percentile(5),
		P95:       rec.Percentile(95),
		GetMisses: gets - hits,
		VerifyErr: verifyErr,
		Completed: completed,
		Events:    cl.Eng.Processed(),
	}
	if perCore != nil {
		after := perCore()
		res.PerCore = make([]float64, len(after))
		for i := range after {
			res.PerCore[i] = stats.Throughput(after[i]-beforeCore[i], Span)
		}
	}
	return res
}

func ternary(c bool, a, b float64) float64 {
	if c {
		return a
	}
	return b
}

// Fig9Throughput reproduces Figure 9: end-to-end throughput for 48 B
// items under 5%, 50% and 100% PUT workloads, on both clusters.
func Fig9Throughput(_ cluster.Spec) (*Table, *Report) {
	t := &Table{
		ID:      "fig9",
		Title:   "End-to-end throughput (Mops), 48 B items (SK=16, SV=32)",
		Columns: []string{"cluster", "PUT%", SysPilaf, SysFaRM, SysFaRMVar, SysHERD},
	}
	rep := newReport("fig9", cluster.Spec{Name: "Apt+Susitna"})
	for _, spec := range []cluster.Spec{cluster.Apt(), cluster.Susitna()} {
		for _, putPct := range []int{5, 50, 100} {
			row := []string{spec.Name, fmt.Sprintf("%d%%", putPct)}
			for _, sys := range AllSystems {
				cfg := defaultE2E(spec, sys)
				cfg.getFraction = 1 - float64(putPct)/100
				row = append(row, rep.Arm(fmt.Sprintf("%s/put=%d/%s", spec.Name, putPct, sys)).e2e(runE2E(cfg)))
			}
			t.AddRow(row...)
		}
	}
	// "over 2X higher than FaRM-KV and Pilaf", read-intensive on Apt.
	apt := func(sys string) float64 { return rep.Arms["Apt/put=5/"+sys]["mops"].Value }
	shape := rep.Arm("shape")
	shape.Set("herd_over_pilaf", ratio(apt(SysHERD), apt(SysPilaf)), "x", Higher)
	shape.Set("herd_over_farm_var", ratio(apt(SysHERD), apt(SysFaRMVar)), "x", Higher)
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
	// value after LEN and keyhash, so the top point is 1000 here.
	for _, sv := range []int{4, 8, 16, 32, 64, 128, 256, 512, 1000} {
		row := []string{fmt.Sprintf("%d", sv)}
		for _, sys := range []string{SysHERD, SysPilaf, SysFaRM, SysFaRMVar} {
			cfg := defaultE2E(spec, sys)
			cfg.valueSize = sv
			cfg.keys = 16 * 1024 // keep the largest tables in memory bounds
			row = append(row, rep.Arm(fmt.Sprintf("sv=%d/%s", sv, sys)).e2e(runE2E(cfg)))
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
			cfg := defaultE2E(spec, sys)
			cfg.clients = nc
			r := runE2E(cfg)
			m := rep.Arm(fmt.Sprintf("%s/clients=%d", sys, nc))
			t.AddRow(sys, fmt.Sprintf("%d", nc), m.e2e(r), m.us("mean_us", r.Mean.Microseconds()),
				m.us("p5_us", r.P5.Microseconds()), m.us("p95_us", r.P95.Microseconds()))
		}
	}
	return t, rep
}
