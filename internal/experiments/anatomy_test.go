package experiments

import (
	"testing"

	"herdkv/internal/cluster"
)

func TestAnatomySumsAndShape(t *testing.T) {
	_, rep := LatencyAnatomy(cluster.Apt())
	req := metric(t, rep, "idle_get", "request_leg_us")
	srv := metric(t, rep, "idle_get", "server_cpu_us")
	rsp := metric(t, rep, "idle_get", "response_leg_us")
	total := metric(t, rep, "idle_get", "total_us")

	if sum := req + srv + rsp; sum < total*0.98 || sum > total*1.02 {
		t.Fatalf("stages (%.2f) do not sum to total (%.2f)", sum, total)
	}
	// The network legs dominate; the server CPU is a small slice — the
	// quantitative core of the paper's single-RTT argument.
	if srv > 0.25*total {
		t.Fatalf("server stage %.2f us is too large a share of %.2f us", srv, total)
	}
	if req < 0.3*total || rsp < 0.3*total {
		t.Fatalf("network legs should dominate: req=%.2f rsp=%.2f total=%.2f", req, rsp, total)
	}
	if total < 1 || total > 4 {
		t.Fatalf("idle GET total %.2f us outside the 1-4 us band", total)
	}
}
