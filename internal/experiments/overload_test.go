package experiments

import (
	"testing"

	"herdkv/internal/cluster"
)

// TestOverloadGate is the acceptance gate for the overload controller:
// with admission control + busy pushback + AIMD, goodput stays within
// 90% of its peak at every past-saturation load level (including 2x
// saturation and the deepest point of the sweep), while the uncontrolled
// baseline's goodput collapses under retry-storm duplication somewhere
// past saturation.
func TestOverloadGate(t *testing.T) {
	defer short(t)()

	_, rep := Overload(cluster.Apt())
	peak := func(mode string) float64 {
		best := 0.0
		for _, chains := range overloadChains {
			best = max(best, metric(t, rep, overloadArm(mode, chains), "goodput_mops"))
		}
		return best
	}
	basePeak, ctlPeak := peak("baseline"), peak("controlled")
	if basePeak <= 0 || ctlPeak <= 0 {
		t.Fatalf("zero peak goodput: base %.2f ctl %.2f", basePeak, ctlPeak)
	}

	// One chain sustains ~1/RTT ops, so one ~6.45 Mops process saturates
	// around 13 chains; every sweep point from 32 chains on is at least
	// 2x saturation offered load.
	const pastSaturation = 32
	baseWorst := basePeak
	var shed, busy, ctlFailed, baseRetries float64
	for _, chains := range overloadChains {
		b, c := overloadArm("baseline", chains), overloadArm("controlled", chains)
		shed += metric(t, rep, c, "shed")
		busy += metric(t, rep, c, "busy_rx")
		ctlFailed += metric(t, rep, c, "failed")
		if chains < pastSaturation {
			continue
		}
		baseRetries += metric(t, rep, b, "retries")
		baseWorst = min(baseWorst, metric(t, rep, b, "goodput_mops"))
		// The gate: the controller holds >= 90% of peak goodput at 2x
		// saturation and every deeper load level.
		got := metric(t, rep, c, "goodput_mops")
		if got < 0.9*ctlPeak {
			t.Errorf("controlled goodput %.2f Mops at %d chains < 90%% of %.2f peak", got, chains, ctlPeak)
		}
		if got < 0.9*basePeak {
			t.Errorf("controlled goodput %.2f Mops at %d chains < 90%% of baseline peak %.2f", got, chains, basePeak)
		}
	}
	// The baseline must collapse somewhere past saturation: queueing
	// delay crosses the retry timeout and service capacity drains into
	// duplicated requests (observed worst point ~50% of peak).
	if baseWorst > 0.7*basePeak {
		t.Errorf("baseline never collapsed: worst %.2f Mops vs %.2f peak", baseWorst, basePeak)
	}
	if baseRetries == 0 {
		t.Error("baseline past saturation never retried — no storm to protect against")
	}
	if shed == 0 || busy == 0 {
		t.Errorf("controller never engaged: shed %.0f busy_rx %.0f", shed, busy)
	}
	if ctlFailed != 0 {
		t.Errorf("controlled runs terminally failed %.0f ops; pushback must not fail work", ctlFailed)
	}
}
