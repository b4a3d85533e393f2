package experiments

import (
	"fmt"
	"testing"

	"herdkv/internal/cluster"
)

func TestAblationArchitectureCrossover(t *testing.T) {
	if testing.Short() {
		t.Skip("client-scaling sweep is slow")
	}
	defer short(t)()
	_, rep := AblationArchitecture(cluster.Apt())
	mops := func(clients int, mode string) float64 {
		return metric(t, rep, fmt.Sprintf("clients=%d/%s", clients, mode), "mops")
	}
	// At moderate scale the hybrid wins by roughly the paper's 4-5 Mops.
	hybrid, sendSend := mops(50, "hybrid-uc"), mops(50, "send-send")
	if gap := hybrid - sendSend; gap < 2 || gap > 9 {
		t.Errorf("SEND/SEND penalty at 50 clients = %.1f Mops, want ~4-5", gap)
	}
	// At 500 clients the hybrid has declined while SEND/SEND holds, so
	// SEND/SEND wins (Section 5.5's prediction).
	if h, s := mops(500, "hybrid-uc"), mops(500, "send-send"); s <= h {
		t.Errorf("at 500 clients SEND/SEND (%.1f) should beat the hybrid (%.1f)", s, h)
	}
	// SEND/SEND is flat across the sweep.
	s50, s500 := sendSend, mops(500, "send-send")
	if s500 < s50*0.9 {
		t.Errorf("SEND/SEND not flat: %.1f at 50 vs %.1f at 500", s50, s500)
	}
	// DC: flat like SEND/SEND but near the hybrid's peak (it keeps WRITE
	// semantics) — the paper's Connect-IB expectation.
	d50, d500 := mops(50, "hybrid-dc"), mops(500, "hybrid-dc")
	if d500 < d50*0.9 {
		t.Errorf("DC not flat: %.1f at 50 vs %.1f at 500", d50, d500)
	}
	if d50 <= s50 {
		t.Errorf("DC (%.1f) should beat SEND/SEND (%.1f) — WRITEs beat SENDs inbound", d50, s50)
	}
	if d50 < hybrid*0.9 {
		t.Errorf("DC (%.1f) should be close to the hybrid's peak (%.1f)", d50, hybrid)
	}
	if h500 := mops(500, "hybrid-uc"); d500 <= h500 {
		t.Errorf("at 500 clients DC (%.1f) should beat the UC hybrid (%.1f)", d500, h500)
	}
}

func TestAblationInline(t *testing.T) {
	defer short(t)()
	_, rep := AblationInlineCutoff(cluster.Apt())
	// Never inlining cripples small-value throughput.
	if cliff := metric(t, rep, "shape", "inline_cliff_sv32"); cliff < 2 {
		t.Errorf("inlining should at least double SV=32 throughput: %.1f vs %.1f",
			metric(t, rep, "cutoff=144/sv=32", "mops"), metric(t, rep, "cutoff=1/sv=32", "mops"))
	}
}

func TestAblationWindow(t *testing.T) {
	defer short(t)()
	_, rep := AblationWindow(cluster.Apt())
	// Throughput saturates by window 4; latency keeps growing.
	w1, w4, w16 := metric(t, rep, "window=1", "mops"), metric(t, rep, "window=4", "mops"), metric(t, rep, "window=16", "mops")
	if w4 < w1 {
		t.Errorf("deeper window should not lower throughput: w1=%.1f w4=%.1f", w1, w4)
	}
	if w16 < w4*0.9 {
		t.Errorf("w16 (%.1f) should hold w4's throughput (%.1f)", w16, w4)
	}
	if l4, l16 := metric(t, rep, "window=4", "mean_us"), metric(t, rep, "window=16", "mean_us"); l16 < 2*l4 {
		t.Errorf("latency should grow with window: w4=%.1f us, w16=%.1f us", l4, l16)
	}
}

func TestAblationPrefetch(t *testing.T) {
	defer short(t)()
	_, rep := AblationPrefetch(cluster.Apt())
	for _, cores := range []int{2, 4} {
		np := metric(t, rep, fmt.Sprintf("cores=%d/no-prefetch", cores), "mops")
		if pf := metric(t, rep, fmt.Sprintf("cores=%d/prefetch", cores), "mops"); pf < 1.5*np {
			t.Errorf("cores=%d: prefetch (%.1f) should be >1.5x no-prefetch (%.1f)", cores, pf, np)
		}
	}
}
