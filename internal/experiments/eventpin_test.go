package experiments

import (
	"testing"

	"herdkv/internal/cluster"
)

// TestFig9EventCountPinned pins a 200 µs Fig 9 HERD point (Apt, 95%
// GET) to its exact event count, completed ops and goodput. The
// simulator's queue and stage records may change how events are stored,
// never which events run: a change that merges or adds events, or
// reorders equal-time ties, moves these numbers and must update the pin
// on purpose.
func TestFig9EventCountPinned(t *testing.T) {
	defer short(t)()
	res := RunE2E(DefaultE2E(cluster.Apt(), SysHERD))
	const (
		wantEvents    = 119158
		wantCompleted = 5073
		wantMops      = 27.160000000000004
	)
	if res.Events != wantEvents || res.Completed != wantCompleted || res.Mops != wantMops {
		t.Fatalf("Fig 9 HERD point: events=%d completed=%d mops=%v, want events=%d completed=%d mops=%v",
			res.Events, res.Completed, res.Mops, wantEvents, wantCompleted, wantMops)
	}
}
