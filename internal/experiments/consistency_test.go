package experiments

import (
	"reflect"
	"testing"

	"herdkv/internal/cluster"
	"herdkv/internal/fault"
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

// TestConsistencyGateSeeds widens the consistency gate past the one
// schedule the seed search picks: under each of 64 generated nemesis
// schedules the versioned arm must certify linearizable with every
// replica set converged after the anti-entropy sweep. The first-ack arm
// runs the same schedules as the negative control, and must serve a
// stale read under at least one of them.
func TestConsistencyGateSeeds(t *testing.T) {
	const seeds = 64
	spec := cluster.Apt()
	firstAckViolated := 0
	for s := int64(1); s <= seeds; s++ {
		sched := consistencyNemesis(s).Generate()
		m := consistencyArm(spec, s, sched, true)
		if v, div := m["violations"].Value, m["divergent_after"].Value; v != 0 || div != 0 {
			t.Errorf("seed %d: versioned arm read %.0f violations, %.0f divergent keys after the sweep; want 0 and 0", s, v, div)
		}
		if consistencyArm(spec, s, sched, false)["violations"].Value > 0 {
			firstAckViolated++
		}
	}
	t.Logf("first-ack violated under %d of %d schedules", firstAckViolated, seeds)
	if firstAckViolated == 0 {
		t.Fatalf("the first-ack arm violated under none of the %d schedules: the gate's negative control no longer bites", seeds)
	}
}

// TestNemesisLineReparses checks that the report's schedule param is
// the re-parseable script line: parsing it regenerates exactly the
// events of the config it was rendered from, flush crashes included.
func TestNemesisLineReparses(t *testing.T) {
	flush := consistencyNemesis(1)
	flush.FlushCrashes = 1
	for _, cfg := range []fault.NemesisConfig{consistencyNemesis(1), flush} {
		line := nemesisLine(cfg)
		sched, err := fault.ParseSchedule(line)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		if want := cfg.Generate().Events; !reflect.DeepEqual(sched.Events, want) {
			t.Errorf("%q parses to %+v, want %+v", line, sched.Events, want)
		}
	}
}
