package experiments

import (
	"fmt"

	"herdkv/internal/cluster"
	"herdkv/internal/core"
	"herdkv/internal/sim"
)

// The ablations quantify the design decisions DESIGN.md calls out, each
// isolating one choice HERD makes and measuring what it buys.

// AblationArchitecture compares the WRITE/SEND hybrid against the
// SEND/SEND alternative of Section 5.5 across client counts: the hybrid
// is faster at moderate scale but declines past the NIC's context reach,
// while SEND/SEND trades ~4-5 Mops of peak for flat scaling.
func AblationArchitecture(spec cluster.Spec) (*Table, *Report) {
	t := &Table{
		ID:      "ablation-arch",
		Title:   fmt.Sprintf("Request architecture vs client count (Mops) — %s", spec.Name),
		Columns: []string{"clients", "WRITE/SEND (UC)", "SEND/SEND (UD)", "WRITE/SEND (DC)"},
	}
	warmup, span := max(Warmup, 200*sim.Microsecond), max(Span, 600*sim.Microsecond)
	rep := newReport("ablation-arch", spec)
	for _, nc := range []int{50, 150, 260, 400, 500} {
		row := []string{fmt.Sprintf("%d", nc)}
		for _, arm := range []struct {
			name string
			path core.RequestPath
		}{{"hybrid-uc", core.RequestUC}, {"send-send", core.RequestSend}, {"hybrid-dc", core.RequestDC}} {
			cfg := DefaultE2E(spec, SysHERD)
			cfg.Clients = nc
			cfg.RequestPath = arm.path
			row = append(row, rep.Arm(fmt.Sprintf("clients=%d/%s", nc, arm.name)).e2e(runE2E(cfg, warmup, span)))
		}
		t.AddRow(row...)
	}
	t.AddNote("SEND/SEND and DC keep no per-client state at the server NIC; DC keeps WRITE semantics (the Connect-IB fix the paper anticipates in Section 5.5)")
	return t, rep
}

// AblationInlineCutoff sweeps the response inline threshold: inlining
// small responses is the difference between PIO-rate and DMA-rate
// responses; inlining big ones wastes PIO bandwidth.
func AblationInlineCutoff(spec cluster.Spec) (*Table, *Report) {
	t := &Table{
		ID:      "ablation-inline",
		Title:   fmt.Sprintf("Response inline cutoff (Mops) — %s", spec.Name),
		Columns: []string{"cutoff", "SV=32", "SV=192"},
	}
	rep := newReport("ablation-inline", spec)
	arm := func(cutoff, sv int) Metrics { return rep.Arm(fmt.Sprintf("cutoff=%d/sv=%d", cutoff, sv)) }
	for _, cutoff := range []int{1, 64, 144, 256} {
		row := []string{fmt.Sprintf("%d", cutoff)}
		for _, sv := range []int{32, 192} {
			cfg := DefaultE2E(spec, SysHERD)
			cfg.ValueSize = sv
			cfg.InlineCut = cutoff
			row = append(row, arm(cutoff, sv).e2e(RunE2E(cfg)))
		}
		t.AddRow(row...)
	}
	// The inline cliff: small values at the default cutoff vs never
	// inlining (cutoff 1).
	cliff := ratio(arm(144, 32)["mops"].Value, arm(1, 32)["mops"].Value)
	rep.Arm("shape").Set("inline_cliff_sv32", cliff, "x", Higher)
	t.AddNote("the paper's default is 144 B on Apt: inline below it, DMA above")
	return t, rep
}

// AblationWindow sweeps the client window: deeper windows raise
// throughput until the server saturates, then only add latency.
func AblationWindow(spec cluster.Spec) (*Table, *Report) {
	t := &Table{
		ID:      "ablation-window",
		Title:   fmt.Sprintf("Client window size (48 B read-intensive, 51 clients) — %s", spec.Name),
		Columns: []string{"window", "Mops", "mean_us"},
	}
	rep := newReport("ablation-window", spec)
	for _, w := range []int{1, 2, 4, 8, 16} {
		cfg := DefaultE2E(spec, SysHERD)
		cfg.Window = w
		r := RunE2E(cfg)
		m := rep.Arm(fmt.Sprintf("window=%d", w))
		t.AddRow(fmt.Sprintf("%d", w), m.e2e(r), m.us("mean_us", r.Mean.Microseconds()))
	}
	return t, rep
}

// AblationDoorbell measures doorbell batching: posting several WQEs per
// doorbell replaces per-verb PIO with one NIC-side WQE fetch, raising
// the outbound message rate well past the BlueFlame path's 64 B
// write-combining limit — the standard next step after the paper's
// optimization ladder.
func AblationDoorbell(spec cluster.Spec) (*Table, *Report) {
	t := &Table{
		ID:      "ablation-doorbell",
		Title:   fmt.Sprintf("Doorbell batching: outbound 32 B inlined WRITEs (Mops) — %s", spec.Name),
		Columns: []string{"batch", "Mops"},
	}
	rep := newReport("ablation-doorbell", spec)
	for _, batch := range []int{1, 2, 4, 8, 16} {
		t.AddRow(fmt.Sprintf("%d", batch), rep.Arm(fmt.Sprintf("batch=%d", batch)).mops("mops", outboundMops(spec, "wr-inline", 32, batch, inboundWindow/2)))
	}
	t.AddNote("batch=1 is the BlueFlame (PIO WQE) path the paper's microbenchmarks use")
	t.AddNote("batched rates extrapolate beyond ConnectX-3's validated envelope; they model the mechanism, not that card's ceiling")
	return t, rep
}

// AblationPrefetch disables the request pipeline end to end: Figure 7's
// microbenchmark, replayed through the full system.
func AblationPrefetch(spec cluster.Spec) (*Table, *Report) {
	t := &Table{
		ID:      "ablation-prefetch",
		Title:   fmt.Sprintf("Request pipeline prefetching, end to end (Mops) — %s", spec.Name),
		Columns: []string{"cores", "no-prefetch", "prefetch"},
	}
	rep := newReport("ablation-prefetch", spec)
	for _, cores := range []int{2, 4, 6} {
		row := []string{fmt.Sprintf("%d", cores)}
		for _, mode := range []string{"no-prefetch", "prefetch"} {
			cfg := DefaultE2E(spec, SysHERD)
			cfg.Cores = cores
			cfg.NoPrefetch = mode == "no-prefetch"
			row = append(row, rep.Arm(fmt.Sprintf("cores=%d/%s", cores, mode)).e2e(RunE2E(cfg)))
		}
		t.AddRow(row...)
	}
	return t, rep
}
