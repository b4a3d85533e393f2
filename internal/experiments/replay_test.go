package experiments

import (
	"strings"
	"sync"
	"testing"

	"herdkv/internal/cluster"
)

// replayFirst keeps each target's first TestReplayStable output for the
// lifetime of the test process. `go test -count=2` re-enters the test in
// the same process, so the second entry compares a complete fresh
// execution against the first one's bytes — catching leaked global state
// (an ambient rand, a shared cache, init-order dependence) that a
// within-run double execution can never see. CI runs this under -race
// -count=2 (see .github/workflows/ci.yml and docs/ROBUSTNESS.md).
var replayFirst sync.Map

// TestReplayStable pins determinism for every registered target that
// writes a report, plus the chaos scenarios: two in-process runs, and
// the first run of any earlier -count iteration, must produce the same
// table and report bytes.
func TestReplayStable(t *testing.T) {
	defer short(t)()
	for _, target := range Targets {
		if target.Bench == nil && target.Name != "chaos" && target.Name != "fleet-chaos" {
			continue
		}
		target := target
		t.Run(target.Name, func(t *testing.T) {
			run := func() string {
				tbl, rep := target.Run(cluster.Apt())
				var sb strings.Builder
				sb.WriteString(tbl.String())
				if rep != nil {
					if err := rep.WriteJSON(&sb); err != nil {
						t.Fatal(err)
					}
				}
				return sb.String()
			}
			out := run()
			if again := run(); again != out {
				t.Fatalf("same-process rerun diverged:\n--- first ---\n%s--- rerun ---\n%s", out, again)
			}
			if first, loaded := replayFirst.LoadOrStore(target.Name, out); loaded && first != out {
				t.Fatalf("run diverged from the first in-process run (leaked global state?):\n--- first ---\n%s--- this run ---\n%s",
					first, out)
			}
		})
	}
}

// metric returns the named arm's metric from rep, failing t when the
// arm or metric is missing.
func metric(t *testing.T, rep *Report, arm, name string) float64 {
	t.Helper()
	m, ok := rep.Arms[arm][name]
	if !ok {
		t.Fatalf("%s report has no %q metric in arm %q", rep.Name, name, arm)
	}
	return m.Value
}
