package experiments

import (
	"testing"

	"herdkv/internal/cluster"
)

// TestDurabilityGate is the CI durability gate: zero data loss in both
// arms, a strictly faster warm rejoin, and proof the flushcrash left a
// torn tail that replay truncated.
func TestDurabilityGate(t *testing.T) {
	tab, rep := DurabilityScenario(cluster.Apt())
	out := tab.String()
	m := func(arm, name string) float64 { return metric(t, rep, arm, name) }
	for _, a := range []string{"off", "group-commit"} {
		if lost := m(a, "lost_keys"); lost != 0 {
			t.Fatalf("%s arm lost %.0f keys (must be 0):\n%s", a, lost, out)
		}
		if missing := m(a, "shard_missing"); missing != 0 {
			t.Fatalf("%s arm: %.0f keys missing from the rejoined shard:\n%s", a, missing, out)
		}
		if m(a, "failed") != 0 || m(a, "hung") != 0 {
			t.Fatalf("%s arm: %.0f failed, %.0f hung (must be 0; R=2 absorbs the outage):\n%s",
				a, m(a, "failed"), m(a, "hung"), out)
		}
		if m(a, "issued") == 0 || m(a, "ok") == 0 {
			t.Fatalf("%s arm issued %.0f / ok %.0f — the workload did not run:\n%s", a, m(a, "issued"), m(a, "ok"), out)
		}
	}
	if m("group-commit", "replayed")+m("group-commit", "snapshot_records") == 0 {
		t.Fatalf("warm arm replayed nothing — the WAL was not exercised:\n%s", out)
	}
	if m("group-commit", "torn_bytes") == 0 {
		t.Fatalf("flushcrash left no torn tail — CrashTorn not reaching the log:\n%s", out)
	}
	if m("off", "torn_bytes") != 0 || m("off", "replayed") != 0 {
		t.Fatalf("cold arm has WAL activity (torn=%.0f replayed=%.0f):\n%s",
			m("off", "torn_bytes"), m("off", "replayed"), out)
	}
	if warm, cold := m("group-commit", "recovery_us"), m("off", "recovery_us"); warm >= cold {
		t.Fatalf("warm rejoin (%v us) not strictly faster than cold re-replication (%v us):\n%s", warm, cold, out)
	}
	if warm, cold := m("group-commit", "catchup_keys"), m("off", "catchup_keys"); warm >= cold {
		t.Fatalf("warm delta (%.0f keys) not smaller than cold full recopy (%.0f keys):\n%s", warm, cold, out)
	}
	if m("group-commit", "wal_snapshots") == 0 {
		t.Fatalf("warm arm never snapshot-compacted — SnapshotEvery not exercised:\n%s", out)
	}
}
