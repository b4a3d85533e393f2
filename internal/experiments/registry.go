package experiments

import "herdkv/internal/cluster"

// Target is one named experiment. Run returns its table and its report;
// the report is nil only for the static tables (table1, table2, fig1,
// fig8), which measure nothing.
type Target struct {
	Name string
	Run  func(cluster.Spec) (*Table, *Report)
}

// Targets is every experiment in run order ("all").
var Targets = []Target{
	{Name: "table1", Run: Table1Verbs},
	{Name: "table2", Run: Table2Clusters},
	{Name: "fig1", Run: Fig1Steps},
	{Name: "fig2", Run: Fig2Latency},
	{Name: "fig3", Run: Fig3Inbound},
	{Name: "fig4", Run: Fig4Outbound},
	{Name: "fig5", Run: Fig5Echo},
	{Name: "fig6", Run: Fig6AllToAll},
	{Name: "fig7", Run: Fig7Prefetch},
	{Name: "fig8", Run: Fig8Layout},
	{Name: "fig9", Run: Fig9Throughput}, // always both clusters
	{Name: "fig10", Run: Fig10ValueSize},
	{Name: "fig11", Run: Fig11LatencyThroughput},
	{Name: "fig12", Run: Fig12ClientScaling},
	{Name: "fig13", Run: Fig13CPUCores},
	{Name: "fig14", Run: Fig14Skew},

	// Ablations beyond the paper's figures.
	{Name: "ablation-arch", Run: AblationArchitecture},
	{Name: "ablation-inline", Run: AblationInlineCutoff},
	{Name: "ablation-window", Run: AblationWindow},
	{Name: "ablation-prefetch", Run: AblationPrefetch},
	{Name: "ablation-doorbell", Run: AblationDoorbell},
	{Name: "anatomy", Run: LatencyAnatomy},
	{Name: "cpuuse", Run: CPUUse},
	{Name: "symmetric", Run: SymmetricStudy},
	{Name: "classical", Run: Classical},

	// Robustness: HERD under a scripted fault schedule
	// (docs/ROBUSTNESS.md).
	{Name: "chaos", Run: ChaosScenario},

	// Fleet scale-out: one server vs a fleet at R=1 and R=2, and the
	// fleet under a crash-restart schedule (docs/SCALEOUT.md).
	{Name: "fleet-bench", Run: FleetBench},
	{Name: "fleet-chaos", Run: FleetChaosScenario},

	// Overload: goodput and tail latency vs offered load, with and
	// without admission control + busy pushback + client AIMD
	// (docs/ROBUSTNESS.md).
	{Name: "overload", Run: Overload},

	// Connection scalability: the Figure 12 cliff at 100..10k clients and
	// the endpoint multiplexing tier that removes it (docs/SCALABILITY.md).
	{Name: "clients-sweep", Run: Clients},

	// Durability: the fleet crashed mid-group-commit, warm WAL rejoin vs
	// cold re-replication (docs/DURABILITY.md).
	{Name: "durability", Run: DurabilityScenario},

	// Hot-key survival: the skewed workload with and without the client
	// near cache + leases (docs/CACHING.md).
	{Name: "hotkey", Run: Hotkey},

	// Consistency: the nemesis-driven linearizability gate — first-ack
	// divergence vs versioned read repair under a generated chaos
	// schedule (docs/ROBUSTNESS.md).
	{Name: "consistency", Run: ConsistencyScenario},
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
