package experiments

import (
	"fmt"
	"slices"

	"herdkv/internal/cluster"
	"herdkv/internal/sim"
)

// Fig12ClientScaling reproduces Figure 12: HERD throughput as the number
// of client processes grows toward the full cluster, for window sizes 4
// and 16. Throughput holds to roughly the NIC's receive-context reach
// (~260 clients), then declines as inbound QP contexts start missing;
// larger windows arrive in bursts that amortize the misses.
func Fig12ClientScaling(spec cluster.Spec) (*Table, *Report) {
	t := &Table{
		ID:      "fig12",
		Title:   fmt.Sprintf("HERD throughput vs client processes — %s", spec.Name),
		Columns: []string{"clients", "WS=4 (Mops)", "WS=16 (Mops)"},
	}
	// Hundreds of closed-loop clients make the system burst-synchronize;
	// average over a longer steady-state window than the other figures
	// so the oscillation washes out.
	warmup, span := max(Warmup, 250*sim.Microsecond), max(Span, 900*sim.Microsecond)
	rep := newReport("fig12", spec)
	sweep := []int{50, 100, 150, 200, 260, 320, 400, 500}
	ws4 := make([]float64, len(sweep))
	for i, nc := range sweep {
		row := []string{fmt.Sprintf("%d", nc)}
		for _, ws := range []int{4, 16} {
			cfg := DefaultE2E(spec, SysHERD)
			cfg.Clients = nc
			cfg.Window = ws
			cfg.GetFraction = 0.95
			r := runE2E(cfg, warmup, span)
			if ws == 4 {
				ws4[i] = r.Mops
			}
			row = append(row, rep.Arm(fmt.Sprintf("clients=%d/ws=%d", nc, ws)).e2e(r))
		}
		t.AddRow(row...)
	}
	// The cliff: the first client count past the WS=4 peak that falls
	// below 95% of it (0 if none does).
	peak, decline := slices.Index(ws4, slices.Max(ws4)), 0
	for i := peak + 1; i < len(sweep) && decline == 0; i++ {
		if ws4[i] < 0.95*ws4[peak] {
			decline = sweep[i]
		}
	}
	rep.Arm("shape").Set("ws4_decline_clients", float64(decline), "clients", Higher)
	t.AddNote("16 B keys, 32 B values; server NIC receive-context cache holds ~%d QP contexts", spec.NIC.RecvCtxCap)
	return t, rep
}

// Fig13CPUCores reproduces Figure 13: throughput as a function of server
// CPU cores for a 100%-PUT 48 B workload. HERD does real key-value work;
// the emulated systems handle only network traffic, and Pilaf-em-OPT
// additionally pays RECV reposting per request.
func Fig13CPUCores(spec cluster.Spec) (*Table, *Report) {
	t := &Table{
		ID:      "fig13",
		Title:   fmt.Sprintf("Throughput (Mops) vs server CPU cores, 48 B PUTs — %s", spec.Name),
		Columns: []string{"cores", SysHERD, SysPilaf + " (PUT)", SysFaRM + " (PUT)"},
	}
	rep := newReport("fig13", spec)
	var herd []float64
	for cores := 1; cores <= 7; cores++ {
		row := []string{fmt.Sprintf("%d", cores)}
		for _, sys := range []string{SysHERD, SysPilaf, SysFaRM} {
			cfg := DefaultE2E(spec, sys)
			cfg.Cores = cores
			cfg.GetFraction = 0
			r := RunE2E(cfg)
			if sys == SysHERD {
				herd = append(herd, r.Mops)
			}
			row = append(row, rep.Arm(fmt.Sprintf("cores=%d/%s", cores, sys)).e2e(r))
		}
		t.AddRow(row...)
	}
	// "HERD delivers over 95% of its maximum throughput with 5 cores".
	// A run that measured nothing leaves the metric out, which the
	// ratchet reports as missing.
	peak := slices.Max(herd)
	for i, v := range herd {
		if peak > 0 && v >= 0.95*peak {
			rep.Arm("shape").Set("herd_cores_to_95pct", float64(i+1), "cores", Lower)
			break
		}
	}
	return t, rep
}

// Fig14Skew reproduces Figure 14: HERD's per-core throughput under a
// Zipf(.99) workload versus uniform, with 6 cores. EREW partitioning
// plus the shared NIC keeps the most-loaded core within ~50% of the
// least-loaded even though key popularity is skewed by orders of
// magnitude.
func Fig14Skew(spec cluster.Spec) (*Table, *Report) {
	t := &Table{
		ID:      "fig14",
		Title:   fmt.Sprintf("HERD per-core throughput (Mops), skewed vs uniform — %s", spec.Name),
		Columns: []string{"core", "Zipf(.99)", "Uniform"},
	}
	rep := newReport("fig14", spec)
	run := func(arm string, zipf bool) E2EResult {
		cfg := DefaultE2E(spec, SysHERD)
		cfg.Zipf = zipf
		cfg.Keys = 1 << 20 // a large keyspace accentuates the skew
		r := RunE2E(cfg)
		m := rep.Arm(arm)
		m.e2e(r)
		for core, v := range r.PerCore {
			m.Set(fmt.Sprintf("core%d_mops", core+1), v, "Mops", Higher)
		}
		return r
	}
	zipf, uniform := run("zipf", true), run("uniform", false)
	for core := range zipf.PerCore {
		t.AddRow(fmt.Sprintf("%d", core+1), cell(zipf.PerCore[core]), cell(uniform.PerCore[core]))
	}
	t.AddRow("total", cell(zipf.Mops), cell(uniform.Mops))
	shape := rep.Arm("shape")
	shape.Set("zipf_over_uniform", ratio(zipf.Mops, uniform.Mops), "x", Higher)
	if skew := ratio(slices.Max(zipf.PerCore), slices.Min(zipf.PerCore)); skew > 0 {
		shape.Set("zipf_core_skew", skew, "x", Lower)
		t.AddNote("Zipf most/least loaded core ratio: %.2fx", skew)
	}
	return t, rep
}
