package experiments

import (
	"fmt"
	"testing"

	"herdkv/internal/cluster"
)

// TestDeterminism pins the simulator's reproducibility guarantee for
// the end-to-end runner: the same configuration and seed must produce
// a bit-identical result across runs. Every calibration claim in
// EXPERIMENTS.md rests on this; TestReplayStable pins the targets'
// tables and reports the same way.
func TestDeterminism(t *testing.T) {
	defer short(t)()
	e2e := make([]string, 2)
	for i := range e2e {
		e2e[i] = fmt.Sprintf("%+v", RunE2E(DefaultE2E(cluster.Apt(), SysHERD)))
	}
	if e2e[0] != e2e[1] {
		t.Fatalf("end-to-end run not deterministic:\n%s\nvs\n%s", e2e[0], e2e[1])
	}
}
