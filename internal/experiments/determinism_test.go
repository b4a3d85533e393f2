package experiments

import (
	"fmt"
	"testing"

	"herdkv/internal/cluster"
)

// TestDeterminism pins the simulator's reproducibility guarantee: the
// same configuration and seed must produce bit-identical experiment
// tables across runs. Every calibration claim in EXPERIMENTS.md rests
// on this.
func TestDeterminism(t *testing.T) {
	defer short(t)()
	runs := make([]string, 2)
	for i := range runs {
		tbl, _ := Fig5Echo(cluster.Apt())
		runs[i] = tbl.String()
	}
	if runs[0] != runs[1] {
		t.Fatalf("Fig5 not deterministic:\n%s\nvs\n%s", runs[0], runs[1])
	}

	e2e := make([]string, 2)
	for i := range e2e {
		e2e[i] = fmt.Sprintf("%+v", RunE2E(DefaultE2E(cluster.Apt(), SysHERD)))
	}
	if e2e[0] != e2e[1] {
		t.Fatalf("end-to-end run not deterministic:\n%s\nvs\n%s", e2e[0], e2e[1])
	}
}
