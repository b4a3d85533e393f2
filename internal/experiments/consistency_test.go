package experiments

import (
	"testing"

	"herdkv/internal/cluster"
)

// TestConsistencyGate is the CI consistency gate: the nemesis search
// must find a schedule under which the first-ack arm serves a provably
// stale read, the minimizer must shrink it, and the versioned+repair
// arm must certify linearizable under the same schedule with every
// replica set converged after the anti-entropy sweep.
func TestConsistencyGate(t *testing.T) {
	tab, rep := ConsistencyScenario(cluster.Apt())
	out := tab.String()
	m := func(arm, name string) float64 { return metric(t, rep, arm, name) }
	if m("first-ack", "violations") == 0 || m("first-ack", "linearizable") != 0 {
		t.Fatalf("nemesis search found no stale read in the first-ack arm (%.0f seeds tried):\n%s",
			m("search", "seeds_tried"), out)
	}
	if m("first-ack", "partial_writes") == 0 {
		t.Fatalf("first-ack arm saw no partial writes — the schedule never split a fan-out:\n%s", out)
	}
	if m("versioned-repair", "linearizable") != 1 || m("versioned-repair", "violations") != 0 {
		t.Fatalf("versioned+repair arm not linearizable (%.0f violations) under the same schedule:\n%s",
			m("versioned-repair", "violations"), out)
	}
	if div := m("versioned-repair", "divergent_after"); div != 0 {
		t.Fatalf("versioned+repair arm left %.0f divergent keys after the anti-entropy sweep:\n%s", div, out)
	}
	if got, from := m("search", "minimized_events"), m("search", "schedule_events"); got == 0 || got > from {
		t.Fatalf("minimizer produced %.0f events from %.0f:\n%s", got, from, out)
	}
	for _, a := range []string{"first-ack", "versioned-repair"} {
		if m(a, "issued") == 0 || m(a, "ok") == 0 {
			t.Fatalf("%s arm issued %.0f / ok %.0f — the workload did not run:\n%s", a, m(a, "issued"), m(a, "ok"), out)
		}
		if m(a, "hist_ops") == 0 || m(a, "hist_keys") == 0 {
			t.Fatalf("%s arm recorded an empty history:\n%s", a, out)
		}
	}
}
