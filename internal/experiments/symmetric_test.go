package experiments

import (
	"testing"

	"herdkv/internal/cluster"
)

func TestSymmetricStudyShape(t *testing.T) {
	defer short(t)()
	_, rep := SymmetricStudy(cluster.Apt())
	farm4 := metric(t, rep, "machines=4/farm-sym", "mops")
	farm16 := metric(t, rep, "machines=16/farm-sym", "mops")
	herd4 := metric(t, rep, "machines=4/herd", "mops")
	herd16 := metric(t, rep, "machines=16/herd", "mops")

	// Symmetric FaRM's aggregate grows with machines; HERD saturates at
	// its single server.
	if farm16 < farm4*2 {
		t.Errorf("symmetric FaRM should scale: %.1f at 4 vs %.1f at 16", farm4, farm16)
	}
	if herd16 > 32 {
		t.Errorf("HERD should be server-bound (~27 Mops), got %.1f", herd16)
	}
	if herd4 <= farm4 {
		t.Errorf("at small clusters HERD (%.1f) should beat symmetric FaRM (%.1f)", herd4, farm4)
	}
	if farm16 <= herd16 {
		t.Errorf("at 16 machines symmetric FaRM (%.1f) should overtake one HERD server (%.1f)",
			farm16, herd16)
	}
	// Section 2.3's CPU point: the symmetric READ-based design "uses
	// less CPU" on the serving side.
	farmCPU := 100 * metric(t, rep, "machines=16/farm-sym", "srv_cpu")
	herdCPU := 100 * metric(t, rep, "machines=16/herd", "srv_cpu")
	if farmCPU >= herdCPU/4 {
		t.Errorf("symmetric FaRM server CPU (%.0f%%) should be far below HERD's (%.0f%%)",
			farmCPU, herdCPU)
	}
}
