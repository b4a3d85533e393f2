// Benchmarks regenerating every table and figure in the paper's
// evaluation. BenchmarkTargets runs each registered experiment on the
// simulated Apt cluster (Figure 9 covers Susitna too) with shortened
// measurement windows, and reports every directed metric of its report
// as a custom metric named <arm>.<metric>, so `go test -bench=.` doubles
// as a quick reproduction pass. cmd/herdbench prints the full tables
// with default windows.
package herdkv

import (
	"testing"

	"herdkv/internal/cluster"
	"herdkv/internal/experiments"
	"herdkv/internal/sim"
)

func BenchmarkTargets(b *testing.B) {
	w, s := experiments.Warmup, experiments.Span
	experiments.Warmup, experiments.Span = 50*sim.Microsecond, 100*sim.Microsecond
	defer func() { experiments.Warmup, experiments.Span = w, s }()
	for _, target := range experiments.Targets {
		b.Run(target.Name, func(b *testing.B) {
			var rep *experiments.Report
			for i := 0; i < b.N; i++ {
				_, rep = target.Run(cluster.Apt())
			}
			if rep == nil {
				return
			}
			for arm, metrics := range rep.Arms {
				for name, m := range metrics {
					if m.Better != "" {
						b.ReportMetric(m.Value, arm+"."+name)
					}
				}
			}
		})
	}
}
