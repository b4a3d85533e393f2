package experiments

import (
	"testing"

	"herdkv/internal/cluster"
)

func TestFleetBenchSpeedup(t *testing.T) {
	// Shrink the measurement windows: the assertion is about relative
	// throughput, which stabilizes quickly.
	defer short(t)()

	tbl, rep := FleetBench(cluster.Apt())
	for _, arm := range []string{"single", "sharded", "fleet", "versioned"} {
		if metric(t, rep, arm, "goodput_mops") <= 0 {
			t.Fatalf("zero %s throughput:\n%s", arm, tbl)
		}
	}
	// The acceptance bar: 4 shards, at R=1 and at R=2, must each deliver
	// at least 3x one server on the read-intensive mix.
	if s := metric(t, rep, "fleet", "speedup_vs_single"); s < 3 {
		t.Fatalf("fleet speedup %.2fx < 3x over single server:\n%s", s, tbl)
	}
	if s := metric(t, rep, "sharded", "goodput_mops") / metric(t, rep, "single", "goodput_mops"); s < 3 {
		t.Fatalf("sharded (R=1) speedup %.2fx < 3x over single server:\n%s", s, tbl)
	}
	// A versioned fleet reads one replica in the steady state, so it
	// must keep within 5% of the first-ack fleet.
	if s := metric(t, rep, "versioned", "goodput_mops") / metric(t, rep, "fleet", "goodput_mops"); s < 0.95 {
		t.Fatalf("versioned R=2 fleet at %.3fx the first-ack fleet, want at least 0.95x:\n%s", s, tbl)
	}
}
