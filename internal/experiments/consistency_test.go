package experiments

import (
	"testing"

	"herdkv/internal/cluster"
	"herdkv/internal/histcheck"
)

// TestConsistencyGate is the CI consistency gate: under the pinned
// nemesis schedule, which splits write fan-outs, the fleet must certify
// linearizable with every replica set converged after the anti-entropy
// sweep.
func TestConsistencyGate(t *testing.T) {
	tab, rep := ConsistencyScenario(cluster.Apt())
	out := tab.String()
	m := func(name string) float64 { return metric(t, rep, "versioned-repair", name) }
	if m("linearizable") != 1 || m("violations") != 0 {
		t.Fatalf("fleet not linearizable (%.0f violations) under the nemesis schedule:\n%s", m("violations"), out)
	}
	if div := m("divergent_after"); div != 0 {
		t.Fatalf("fleet left %.0f divergent keys after the anti-entropy sweep:\n%s", div, out)
	}
	if m("partial_writes") == 0 {
		t.Fatalf("the schedule never split a fan-out:\n%s", out)
	}
	if m("issued") == 0 || m("ok") == 0 {
		t.Fatalf("issued %.0f / ok %.0f — the workload did not run:\n%s", m("issued"), m("ok"), out)
	}
	if m("hist_ops") == 0 || m("hist_keys") == 0 {
		t.Fatalf("empty history:\n%s", out)
	}
}

// TestConsistencyGateSeeds widens the consistency gate past the pinned
// schedule: under each of 64 generated nemesis schedules the fleet must
// certify linearizable with every replica set converged after the
// anti-entropy sweep.
func TestConsistencyGateSeeds(t *testing.T) {
	const seeds = 64
	spec := cluster.Apt()
	for s := int64(1); s <= seeds; s++ {
		m, _ := consistencyArm(spec, s, mustSchedule(consistencyScript(s)))
		if v, div := m["violations"].Value, m["divergent_after"].Value; v != 0 || div != 0 {
			t.Errorf("seed %d: %.0f violations, %.0f divergent keys after the sweep; want 0 and 0", s, v, div)
		}
	}
}

// TestConsistencyCheckerCatchesStaleRead is the gate's negative
// control: it proves the checker would catch a stale read in the
// history the gate records. One read of a recorded history is rewritten
// to the value of a write that a later completed write superseded
// before the read began; histcheck must then flag that key.
func TestConsistencyCheckerCatchesStaleRead(t *testing.T) {
	_, rec := consistencyArm(cluster.Apt(), 1, mustSchedule(consistencyScript(consistencyNemesisSeed)))
	ops := rec.Ops()
	done := func(o histcheck.Op) bool { return !o.Failed }
	for r, read := range ops {
		if read.Kind != histcheck.Read || !done(read) {
			continue
		}
		// older and newer are completed writes of the read's key, in
		// real-time order, both before the read began.
		for _, older := range ops {
			if older.Key != read.Key || older.Kind != histcheck.Write || !done(older) {
				continue
			}
			for _, newer := range ops {
				if newer.Key != read.Key || newer.Kind != histcheck.Write || !done(newer) ||
					newer.Invoke <= older.Return || newer.Return >= read.Invoke {
					continue
				}
				rec.EndRead(r, older.Value, read.Return)
				chk, err := histcheck.Check(rec, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range chk.Violations {
					if v.Key == read.Key {
						return
					}
				}
				t.Fatalf("a read rewritten to a superseded write's value (%d, superseded by %d) was not flagged; violations %+v",
					older.Value, newer.Value, chk.Violations)
			}
		}
	}
	t.Fatal("the recorded history has no read that follows two completed writes of its key")
}
