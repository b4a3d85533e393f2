package experiments

import (
	"testing"

	"herdkv/internal/cluster"
)

// TestClientsSweepGate is the acceptance gate for the endpoint tier:
// the direct-connection arm must reproduce Figure 12's cliff (>= 30%
// goodput decline from its peak by the deepest sweep point), and the
// muxed arm must hold >= 95% of its peak at every client count.
func TestClientsSweepGate(t *testing.T) {
	defer short(t)()

	_, rep := Clients(cluster.Apt())
	peak := func(mode string) float64 {
		best := 0.0
		for _, n := range clientsSweep {
			best = max(best, metric(t, rep, clientsArm(mode, n), "goodput_mops"))
		}
		return best
	}
	directPeak, muxPeak := peak("direct"), peak("mux")
	if directPeak <= 0 || muxPeak <= 0 {
		t.Fatalf("zero peak goodput: direct %.2f mux %.2f", directPeak, muxPeak)
	}

	// The cliff: the direct arm declines at least 30% from peak by 10k
	// clients (the model's decline is far steeper — the receive context
	// cache holds 280 entries against 10k connected QPs).
	n := clientsSweep[len(clientsSweep)-1]
	deep := clientsArm("direct", n)
	if g := metric(t, rep, deep, "goodput_mops"); g > 0.7*directPeak {
		t.Errorf("no cliff: direct goodput %.2f Mops at %d clients vs %.2f peak (want >= 30%% decline)",
			g, n, directPeak)
	}
	if metric(t, rep, deep, "recv_ctx_evicts") == 0 {
		t.Error("direct arm at 10k clients saw no recv-context evictions — cache never thrashed")
	}
	if qps := metric(t, rep, deep, "server_qps"); qps != float64(n) {
		t.Errorf("direct arm holds %.0f server QPs for %d clients", qps, n)
	}

	for _, n := range clientsSweep {
		m := clientsArm("mux", n)
		// The engineered fix: muxed goodput stays within 5% of its peak
		// at every sweep point, because the server-side QP count is
		// pinned inside the context cache.
		if g := metric(t, rep, m, "goodput_mops"); g < 0.95*muxPeak {
			t.Errorf("muxed goodput %.2f Mops at %d clients < 95%% of %.2f peak", g, n, muxPeak)
		}
		if qps, want := metric(t, rep, m, "server_qps"), clientsHosts*clientsMuxQPs; qps != float64(want) {
			t.Errorf("muxed arm holds %.0f server QPs at %d clients, want %d", qps, n, want)
		}
		if hit := metric(t, rep, m, "recv_ctx_hit_rate"); hit < 0.9 {
			t.Errorf("muxed recv ctx hit rate %.3f at %d clients < 0.9 — pool does not fit on chip", hit, n)
		}
		// Direct-arm hit rate must collapse past cache capacity.
		if hit := metric(t, rep, clientsArm("direct", n), "recv_ctx_hit_rate"); n > 2*cluster.Apt().NIC.RecvCtxCap && hit > 0.5 {
			t.Errorf("direct recv ctx hit rate %.3f at %d clients — no thrash past capacity", hit, n)
		}
	}
}
