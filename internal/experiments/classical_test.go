package experiments

import (
	"testing"

	"herdkv/internal/cluster"
)

func TestClassicalShape(t *testing.T) {
	defer short(t)()
	_, rep := Classical(cluster.Apt())
	rdmaLat, kernelLat := metric(t, rep, "rdma", "idle_get_us"), metric(t, rep, "kernel", "idle_get_us")
	// Section 2.2.1: ~1 us vs ~10 us half-RTT; as full request-reply
	// latencies the kernel stack should be several times slower and land
	// near 8-12 us.
	if kernelLat < 2*rdmaLat {
		t.Errorf("kernel latency (%.1f us) should be >=2x RDMA (%.1f us)", kernelLat, rdmaLat)
	}
	if kernelLat < 6 || kernelLat > 14 {
		t.Errorf("kernel GET latency = %.1f us, want ~8-12", kernelLat)
	}
	rdmaT, kernelT := metric(t, rep, "rdma", "mops"), metric(t, rep, "kernel", "mops")
	if rdmaT < 4*kernelT {
		t.Errorf("RDMA throughput (%.1f) should be >=4x the kernel stack (%.1f)", rdmaT, kernelT)
	}
	// The kernel stack still does a few Mops with 16 cores (the [14]
	// memcached-over-IPoIB ballpark).
	if kernelT < 1 || kernelT > 8 {
		t.Errorf("kernel throughput = %.1f Mops, want ~2-6", kernelT)
	}
}
