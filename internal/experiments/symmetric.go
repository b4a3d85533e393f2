package experiments

import (
	"fmt"

	"herdkv/internal/cluster"
	"herdkv/internal/core"
	"herdkv/internal/farm"
	"herdkv/internal/mica"
	"herdkv/internal/sim"
	"herdkv/internal/stats"
	"herdkv/internal/workload"
)

// SymmetricStudy evaluates the deployment question Section 2.3 raises
// but leaves open: symmetric FaRM (every machine both serves a shard
// and drives load; aggregate READ capacity grows with the cluster)
// versus client-server HERD (one dedicated server; the other machines
// only drive load). For each total machine count it reports aggregate
// read-intensive throughput and mean per-machine server-side CPU
// utilization.
func SymmetricStudy(spec cluster.Spec) (*Table, *Report) {
	t := &Table{
		ID:    "symmetric",
		Title: fmt.Sprintf("Symmetric FaRM vs client-server HERD, 48 B read-intensive — %s", spec.Name),
		Columns: []string{
			"machines", "FaRM-sym Mops", "FaRM-sym srvCPU", "HERD Mops", "HERD srvCPU",
		},
	}
	rep := newReport("symmetric", spec)
	for _, n := range []int{4, 8, 12, 16} {
		row := []string{fmt.Sprintf("%d", n)}
		for _, design := range []string{"farm-sym", "herd"} {
			point := symmetricFarmPoint
			if design == "herd" {
				point = herdPoint
			}
			mops, srvCPU := point(spec, n)
			m := rep.Arm(fmt.Sprintf("machines=%d/%s", n, design))
			m.Set("srv_cpu", srvCPU, "ratio", Lower)
			row = append(row, m.mops("mops", mops), fmt.Sprintf("%.0f%%", srvCPU*100))
		}
		t.AddRow(row...)
	}
	t.AddNote("srvCPU: busy fraction of server-side cores, averaged over the machines that run them")
	t.AddNote("symmetric aggregate grows with the cluster (every NIC serves READs); HERD is bound by its one server but spends those machines' cycles nowhere else")
	return t, rep
}

const symKeys = 16 * 1024

// symmetricFarmPoint runs n symmetric machines, each also driving load
// with 4 chains in flight.
func symmetricFarmPoint(spec cluster.Spec, n int) (mops float64, srvCPU float64) {
	cl := cluster.New(spec, n, 1)
	cfg := farm.Config{
		Mode: farm.InlineMode, Buckets: symKeys * 4, ValueSize: 32,
		ExtentBytes: 1 << 22, Cores: 2, Window: 4,
	}
	sym, err := farm.NewSymmetric(cl, n, cfg)
	if err != nil {
		panic(err)
	}
	preloadKeys(symKeys, 32, sym.Preload)
	d := newDriver(cl.Eng, nil)
	for m := 0; m < n; m++ {
		d.add(sym.Client(m), workload.NewGenerator(workload.ReadIntensive(symKeys, 32, int64(m+1))), 4, 0)
	}
	d.warm(Warmup)
	startBusy := make([]sim.Time, n)
	for m := 0; m < n; m++ {
		startBusy[m] = serverBusy(cl.Machine(m).CPU, cfg.Cores)
	}
	ops := d.measure(Span)
	var busy sim.Time
	for m := 0; m < n; m++ {
		busy += serverBusy(cl.Machine(m).CPU, cfg.Cores) - startBusy[m]
	}
	mops = stats.Throughput(ops, Span)
	srvCPU = float64(busy) / float64(Span) / float64(n*cfg.Cores)
	return mops, srvCPU
}

// herdPoint runs client-server HERD on the same machine budget: one
// server plus n-1 client machines (3 client processes each).
func herdPoint(spec cluster.Spec, n int) (mops float64, srvCPU float64) {
	hcfg := core.DefaultConfig()
	hcfg.NS = 6
	hcfg.Mica = mica.Config{IndexBuckets: symKeys / 4, BucketSlots: 8, LogBytes: symKeys * 64}
	cl, _, clients := deployHERD(deploySpec{spec: spec, seed: 1, keys: symKeys, valueSize: 32,
		clients: (n - 1) * 3, perMachine: 3}, hcfg)
	d := newDriver(cl.Eng, nil)
	for i, c := range clients {
		d.add(c, workload.NewGenerator(workload.ReadIntensive(symKeys, 32, int64(i+1))), hcfg.Window, 0)
	}
	d.warm(Warmup)
	startBusy := serverBusy(cl.Machine(0).CPU, hcfg.NS)
	ops := d.measure(Span)
	busy := serverBusy(cl.Machine(0).CPU, hcfg.NS) - startBusy
	mops = stats.Throughput(ops, Span)
	srvCPU = float64(busy) / float64(Span) / float64(hcfg.NS)
	return mops, srvCPU
}
