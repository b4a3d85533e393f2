package experiments

import (
	"strings"
	"testing"

	"herdkv/internal/cluster"
	"herdkv/internal/fault"
)

// testChaosSchedule is a compressed version of the packaged scenario:
// background loss with a crash-restart window in the middle.
func testChaosSchedule(t *testing.T) *fault.Schedule {
	t.Helper()
	sched, err := fault.ParseSchedule(`
		loss  from=0 until=8ms rate=0.05
		crash node=0 at=2ms restart=4ms
	`)
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

func TestChaosRunIsDeterministicAndDrains(t *testing.T) {
	run := func() string {
		tbl, _ := Chaos(cluster.Apt(), testChaosSchedule(t), 3)
		return tbl.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different chaos tables:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
	}
	if !strings.Contains(a, "0 hung (must be 0)") {
		t.Fatalf("chaos run left hung ops:\n%s", a)
	}
	if !strings.Contains(a, "1 crashes, 1 restarts") {
		t.Fatalf("crash/restart not injected:\n%s", a)
	}
	if !strings.Contains(a, "reconnect handshakes") || strings.Contains(a, "0 reconnect handshakes") {
		t.Fatalf("no client reconnected across the restart:\n%s", a)
	}
}

func TestChaosSeedChangesRun(t *testing.T) {
	a, _ := Chaos(cluster.Apt(), testChaosSchedule(t), 3)
	b, _ := Chaos(cluster.Apt(), testChaosSchedule(t), 4)
	if a.String() == b.String() {
		t.Fatal("different seeds produced identical chaos tables")
	}
}
