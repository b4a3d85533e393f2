package experiments

import (
	"fmt"
	"testing"

	"herdkv/internal/cluster"
)

// Susitna-specific claims from Section 5 and Figure 10's lower panel.

func TestShapeSusitnaFig10(t *testing.T) {
	defer short(t)()
	_, rep := Fig10ValueSize(cluster.Susitna())
	mops := func(sv int, sys string) float64 { return metric(t, rep, fmt.Sprintf("sv=%d/%s", sv, sys), "mops") }
	// "FaRM-em saturates the PCIe 2.0 bandwidth on Susitna with 4 byte
	// values": its throughput at SV=4 is already well below Apt's READ
	// ceiling and strictly declines.
	f4, f32 := mops(4, SysFaRM), mops(32, SysFaRM)
	if f4 > 24 {
		t.Errorf("FaRM-em at SV=4 on Susitna = %.1f Mops; should already be PCIe-bound (<24)", f4)
	}
	if f32 >= f4 {
		t.Errorf("FaRM-em should decline from SV=4 (%.1f) to SV=32 (%.1f)", f4, f32)
	}
	// "HERD achieves high performance for up to 32 byte values on
	// Susitna" then declines with the PIO limit.
	h8, h128 := mops(8, SysHERD), mops(128, SysHERD)
	if h8 < 17 {
		t.Errorf("HERD at SV=8 on Susitna = %.1f Mops, want ~19-26", h8)
	}
	if h128 >= h8 {
		t.Errorf("HERD should decline past the Susitna PIO limit: %.1f vs %.1f", h128, h8)
	}
}

func TestShapeSusitnaBelowApt(t *testing.T) {
	defer short(t)()
	// Every system tops out lower on Susitna (PCIe 2.0, 40 Gbps RoCE).
	for _, sys := range AllSystems {
		apt := RunE2E(DefaultE2E(cluster.Apt(), sys)).Mops
		sus := RunE2E(DefaultE2E(cluster.Susitna(), sys)).Mops
		if sus > apt*1.05 {
			t.Errorf("%s: Susitna (%.1f) should not beat Apt (%.1f)", sys, sus, apt)
		}
	}
}

func TestShapeSusitnaLatencyHigher(t *testing.T) {
	defer short(t)()
	_, apt := Fig2Latency(cluster.Apt())
	_, sus := Fig2Latency(cluster.Susitna())
	aptRead := metric(t, apt, "size=32", "read_us")
	susRead := metric(t, sus, "size=32", "read_us")
	if susRead <= aptRead {
		t.Errorf("Susitna READ latency (%.2f) should exceed Apt's (%.2f)", susRead, aptRead)
	}
}
