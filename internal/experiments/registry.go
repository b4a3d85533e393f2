package experiments

import "herdkv/internal/cluster"

// Target is one named experiment. Exactly one of Table and Bench is set:
// paper figures, ablations and the chaos scenarios render a table only;
// the extension experiments (Bench) also return a Report.
type Target struct {
	Name  string
	Table func(cluster.Spec) *Table
	Bench func(cluster.Spec) (*Table, *Report)
}

// Run executes the target on spec; the report is nil for Table targets.
func (t Target) Run(spec cluster.Spec) (*Table, *Report) {
	if t.Bench != nil {
		return t.Bench(spec)
	}
	return t.Table(spec), nil
}

// noSpec adapts an experiment that ignores the cluster preset.
func noSpec(f func() *Table) func(cluster.Spec) *Table {
	return func(cluster.Spec) *Table { return f() }
}

// Targets is every experiment in run order ("all").
var Targets = []Target{
	{Name: "table1", Table: noSpec(Table1Verbs)},
	{Name: "table2", Table: noSpec(Table2Clusters)},
	{Name: "fig1", Table: noSpec(Fig1Steps)},
	{Name: "fig2", Table: Fig2Latency},
	{Name: "fig3", Table: Fig3Inbound},
	{Name: "fig4", Table: Fig4Outbound},
	{Name: "fig5", Table: Fig5Echo},
	{Name: "fig6", Table: Fig6AllToAll},
	{Name: "fig7", Table: Fig7Prefetch},
	{Name: "fig8", Table: noSpec(Fig8Layout)},
	{Name: "fig9", Table: noSpec(Fig9Throughput)}, // always both clusters
	{Name: "fig10", Table: Fig10ValueSize},
	{Name: "fig11", Table: Fig11LatencyThroughput},
	{Name: "fig12", Table: Fig12ClientScaling},
	{Name: "fig13", Table: Fig13CPUCores},
	{Name: "fig14", Table: Fig14Skew},

	// Ablations beyond the paper's figures.
	{Name: "ablation-arch", Table: AblationArchitecture},
	{Name: "ablation-inline", Table: AblationInlineCutoff},
	{Name: "ablation-window", Table: AblationWindow},
	{Name: "ablation-prefetch", Table: AblationPrefetch},
	{Name: "ablation-doorbell", Table: AblationDoorbell},
	{Name: "anatomy", Table: LatencyAnatomy},
	{Name: "cpuuse", Table: CPUUse},
	{Name: "symmetric", Table: SymmetricStudy},
	{Name: "classical", Table: Classical},

	// Robustness: HERD under a scripted fault schedule
	// (docs/ROBUSTNESS.md).
	{Name: "chaos", Table: ChaosScenario},

	// Fleet scale-out: one server vs a fleet at R=1 and R=2, and the
	// fleet under a crash-restart schedule (docs/SCALEOUT.md).
	{Name: "fleet-bench", Bench: FleetBench},
	{Name: "fleet-chaos", Table: FleetChaosScenario},

	// Overload: goodput and tail latency vs offered load, with and
	// without admission control + busy pushback + client AIMD
	// (docs/ROBUSTNESS.md).
	{Name: "overload", Bench: Overload},

	// Connection scalability: the Figure 12 cliff at 100..10k clients and
	// the endpoint multiplexing tier that removes it (docs/SCALABILITY.md).
	{Name: "clients-sweep", Bench: Clients},

	// Durability: the fleet crashed mid-group-commit, warm WAL rejoin vs
	// cold re-replication (docs/DURABILITY.md).
	{Name: "durability", Bench: DurabilityScenario},

	// Hot-key survival: the skewed workload with and without the client
	// near cache + leases + hot-key widening (docs/CACHING.md).
	{Name: "hotkey", Bench: Hotkey},

	// Consistency: the nemesis-driven linearizability gate — first-ack
	// divergence vs versioned read repair under a generated chaos
	// schedule (docs/ROBUSTNESS.md).
	{Name: "consistency", Bench: ConsistencyScenario},
}

// FindTarget returns the registered target called name.
func FindTarget(name string) (Target, bool) {
	for _, t := range Targets {
		if t.Name == name {
			return t, true
		}
	}
	return Target{}, false
}
