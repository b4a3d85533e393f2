package experiments

import (
	"math"
	"testing"

	"herdkv/internal/cluster"
	"herdkv/internal/kv"
	"herdkv/internal/sim"
	"herdkv/internal/telemetry"
)

func TestCPUUseShape(t *testing.T) {
	defer short(t)()
	_, rep := CPUUse(cluster.Apt())
	type rowv struct{ mops, server, client, total float64 }
	vals := map[string]rowv{}
	for _, sys := range AllSystems {
		vals[sys] = rowv{metric(t, rep, sys, "mops"), metric(t, rep, sys, "server_corems_per_mop"),
			metric(t, rep, sys, "client_corems_per_mop"), metric(t, rep, sys, "total_corems_per_mop")}
	}
	herd, pilaf, farmVar := vals[SysHERD], vals[SysPilaf], vals[SysFaRMVar]

	// HERD's server CPU cost is the design's acknowledged price.
	if herd.server < 5*pilaf.server {
		t.Errorf("HERD server CPU (%.0f) should far exceed the emulated systems' (%.0f)",
			herd.server, pilaf.server)
	}
	// But the READ-based systems burn client CPU on multi-READ GETs,
	// which "reduces the extent of the difference" (Section 5.6): their
	// per-op client cost exceeds HERD's.
	if pilaf.client <= herd.client || farmVar.client <= herd.client {
		t.Errorf("multi-READ clients should cost more CPU/op: pilaf=%.0f farmVar=%.0f herd=%.0f",
			pilaf.client, farmVar.client, herd.client)
	}
	// Totals are comparable — HERD is not the CPU hog the server column
	// alone suggests.
	if herd.total > 1.5*pilaf.total {
		t.Errorf("HERD total CPU (%.0f) should be within 1.5x of Pilaf's (%.0f)",
			herd.total, pilaf.total)
	}
	// And HERD buys far more throughput with it.
	if herd.mops < 2*pilaf.mops {
		t.Errorf("HERD (%.1f Mops) should be >2x Pilaf (%.1f)", herd.mops, pilaf.mops)
	}
}

// TestClientVerbWorkReads checks cpuuse's client-CPU model against the
// READs the clients actually post: clientVerbWork charges a GET 2.6
// READs on Pilaf-em, 2 on FaRM-em-VAR and 1 on FaRM-em, and a HERD GET
// posts none. The READs posted during the measured span, per GET
// completed in it, must match within 10%.
func TestClientVerbWorkReads(t *testing.T) {
	defer short(t)()
	// With a post costing 1 ns and polling free, clientVerbWork's GET
	// cost in ns is its READ count for the READ-based systems.
	modelReads := func(sys string) float64 {
		return clientVerbWork(sys, func() (sim.Time, sim.Time) { return sim.Nanosecond, 0 })(true).Nanoseconds()
	}
	want := map[string]float64{
		SysHERD:    0,
		SysPilaf:   modelReads(SysPilaf),
		SysFaRM:    modelReads(SysFaRM),
		SysFaRMVar: modelReads(SysFaRMVar),
	}
	for _, sys := range AllSystems {
		cfg := DefaultE2E(cluster.Apt(), sys)
		cl, clients, _ := buildSystem(cfg)
		tel := telemetry.New()
		cl.SetTelemetry(tel)
		var gets uint64
		measuring := false
		d := driveE2E(cfg, cl, clients, func(ch *chain, r kv.Result) {
			if measuring && ch.op.IsGet && r.Err == nil {
				gets++
			}
		})
		d.warm(Warmup)
		reads := tel.Counter("verbs.READ.posted")
		start := reads.Value()
		measuring = true
		d.measure(Span)
		if gets == 0 {
			t.Fatalf("%s: no GET completed in the measured span", sys)
		}
		got := float64(reads.Value()-start) / float64(gets)
		t.Logf("%s: %.2f READs posted per GET, model %.1f", sys, got, want[sys])
		if math.Abs(got-want[sys]) > 0.1*want[sys] {
			t.Errorf("%s: %.2f READs posted per GET; clientVerbWork assumes %.1f (want within 10%%)", sys, got, want[sys])
		}
	}
}
