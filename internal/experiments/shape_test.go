package experiments

import (
	"fmt"
	"strings"
	"testing"

	"herdkv/internal/cluster"
	"herdkv/internal/sim"
)

// The shape tests assert the reproduction bands from DESIGN.md §3: not
// the paper's absolute numbers, but who wins, by roughly what factor,
// and where the crossovers fall.

func short(t *testing.T) func() {
	t.Helper()
	w, s := Warmup, Span
	Warmup = 50 * sim.Microsecond
	Span = 150 * sim.Microsecond
	return func() { Warmup, Span = w, s }
}

func TestShapeFig2(t *testing.T) {
	defer short(t)()
	_, rep := Fig2Latency(cluster.Apt())
	for _, size := range []int{4, 32, 64} {
		arm := fmt.Sprintf("size=%d", size)
		wrInline, write, read := metric(t, rep, arm, "wr_inline_us"), metric(t, rep, arm, "write_us"), metric(t, rep, arm, "read_us")
		echo := metric(t, rep, arm, "echo_us")
		half := echo / 2
		if wrInline >= write {
			t.Errorf("size %d: WR-INLINE (%.2f) should beat WRITE (%.2f)", size, wrInline, write)
		}
		if write > read*1.15 || read > write*1.15 {
			t.Errorf("size %d: WRITE (%.2f) and READ (%.2f) should be similar", size, write, read)
		}
		// "the one-way WRITE latency is about half of the READ latency"
		if half > read*0.75 {
			t.Errorf("size %d: ECHO/2 (%.2f) should be well below READ (%.2f)", size, half, read)
		}
		if echo < read*0.7 || echo > read*1.4 {
			t.Errorf("size %d: ECHO (%.2f) should be close to READ (%.2f) for small payloads", size, echo, read)
		}
		if read < 1 || read > 4 {
			t.Errorf("size %d: READ latency %.2f us outside the paper's 1-4 us band", size, read)
		}
	}
	// ECHO latency grows with payload (PIO store time).
	if e64, e256 := metric(t, rep, "size=64", "echo_us"), metric(t, rep, "size=256", "echo_us"); e256 <= e64 {
		t.Errorf("ECHO should grow with payload: 64B %.2f vs 256B %.2f", e64, e256)
	}
}

func TestShapeFig3(t *testing.T) {
	defer short(t)()
	_, rep := Fig3Inbound(cluster.Apt())
	wUC, rRC, wRC := metric(t, rep, "size=32", "write_uc_mops"), metric(t, rep, "size=32", "read_rc_mops"),
		metric(t, rep, "size=32", "write_rc_mops")
	// "WRITEs achieve 35 Mops, about 34% higher than the maximum READ
	// throughput (26 Mops)".
	if wUC < 33 || wUC > 40 {
		t.Errorf("inbound WRITE-UC = %.1f Mops, want ~35", wUC)
	}
	if rRC < 24 || rRC > 29 {
		t.Errorf("inbound READ = %.1f Mops, want ~26", rRC)
	}
	if r := metric(t, rep, "shape", "write_over_read"); r < 1.25 {
		t.Errorf("WRITE (%.1f) should beat READ (%.1f) by >25%% (ratio %.2f)", wUC, rRC, r)
	}
	// RC and UC WRITEs nearly identical inbound.
	if wRC < wUC*0.8 {
		t.Errorf("WRITE-RC (%.1f) should be close to WRITE-UC (%.1f)", wRC, wUC)
	}
	// Bandwidth-bound decline at large payloads.
	if large := metric(t, rep, "size=1024", "write_uc_mops"); large > 8 {
		t.Errorf("1024 B inbound WRITE = %.1f Mops, should be bandwidth-bound (<8)", large)
	}
}

func TestShapeFig4(t *testing.T) {
	defer short(t)()
	_, rep := Fig4Outbound(cluster.Apt())
	at := func(size int, name string) float64 { return metric(t, rep, fmt.Sprintf("size=%d", size), name) }
	inline, nonInline, read := at(16, "wr_uc_inline_mops"), at(16, "write_uc_mops"), at(16, "read_rc_mops")
	if inline < 33 {
		t.Errorf("small inlined outbound WRITE = %.1f Mops, want >33", inline)
	}
	if read < 20 || read > 24 {
		t.Errorf("outbound READ = %.1f Mops, want ~22", read)
	}
	if inline <= read {
		t.Error("small inlined WRITEs must beat READs outbound")
	}
	if nonInline > read {
		t.Errorf("non-inlined WRITE (%.1f) should trail READ (%.1f) outbound", nonInline, read)
	}
	// SEND-UD drops at smaller payloads than WRITE (bigger WQE header).
	if at(28, "send_ud_mops") >= at(28, "wr_uc_inline_mops") {
		t.Error("at 28 B, SEND-UD should already have stepped down while WR-INLINE has not")
	}
	// Inline crosses below non-inline for large payloads; the best WRITE
	// variant never falls below 50% of READ at the same size.
	if at(256, "wr_uc_inline_mops") >= at(256, "write_uc_mops") {
		t.Error("at 256 B, non-inlined WRITE should beat inlined")
	}
	bestWrite := max(at(256, "wr_uc_inline_mops"), at(256, "write_uc_mops"))
	if read256 := at(256, "read_rc_mops"); bestWrite < read256/2 {
		t.Errorf("best WRITE at 256 B (%.1f) below 50%% of READ (%.1f)", bestWrite, read256)
	}
}

func TestShapeFig5(t *testing.T) {
	defer short(t)()
	_, rep := Fig5Echo(cluster.Apt())
	// Ladder must be monotone for every combo.
	for _, combo := range []string{"SEND/SEND", "WR/WR", "WR/SEND"} {
		var ladder []float64
		for _, opts := range echoLadder {
			ladder = append(ladder, metric(t, rep, combo, strings.TrimPrefix(opts.name, "+")+"_mops"))
		}
		for i := 1; i < len(ladder); i++ {
			if ladder[i] < ladder[i-1]*0.98 {
				t.Errorf("%s ladder not monotone: %.2f", combo, ladder)
			}
		}
	}
	// Final rungs: WR/SEND ~26, SEND/SEND ~21 (>3/4 of inbound READ 26).
	wsOpt, ssOpt := metric(t, rep, "WR/SEND", "inlined_mops"), metric(t, rep, "SEND/SEND", "inlined_mops")
	if wsOpt < 24 || wsOpt > 29 {
		t.Errorf("optimized WR/SEND echo = %.1f Mops, want ~26", wsOpt)
	}
	if ssOpt < 19 || ssOpt > 23 {
		t.Errorf("optimized SEND/SEND echo = %.1f Mops, want ~21", ssOpt)
	}
	if ssOpt < 26*0.75 {
		t.Errorf("optimized SEND/SEND (%.1f) should exceed 3/4 of peak READ throughput", ssOpt)
	}
	// Optimizations matter: basic is a small fraction of optimized.
	if basic := metric(t, rep, "WR/SEND", "basic_mops"); basic > wsOpt*0.5 {
		t.Errorf("basic WR/SEND (%.1f) should be well below optimized (%.1f)", basic, wsOpt)
	}
}

func TestShapeFig6(t *testing.T) {
	defer short(t)()
	_, rep := Fig6AllToAll(cluster.Apt())
	in, outW, outS := metric(t, rep, "N=16", "in_write_uc_mops"), metric(t, rep, "N=16", "out_write_uc_mops"),
		metric(t, rep, "N=16", "out_send_ud_mops")
	if in < 30 {
		t.Errorf("inbound WRITE at N=16 = %.1f Mops; should scale (want >30)", in)
	}
	if outS < 24 {
		t.Errorf("outbound SEND-UD at N=16 = %.1f Mops; should scale (want >24)", outS)
	}
	// Outbound WRITE collapses: the paper reports 21% of peak at N=16.
	peakOut := metric(t, rep, "N=8", "out_write_uc_mops")
	if outW > peakOut*0.45 {
		t.Errorf("outbound WRITE at N=16 (%.1f) should collapse below 45%% of its N=8 value (%.1f)",
			outW, peakOut)
	}
}

func TestShapeFig7(t *testing.T) {
	defer short(t)()
	_, rep := Fig7Prefetch(cluster.Apt())
	five := func(name string) float64 { return metric(t, rep, "cores=5", name) }
	n2np, n2p, n8np, n8p := five("n2_mops"), five("n2_prefetch_mops"), five("n8_mops"), five("n8_prefetch_mops")
	if n2p <= n2np || n8p <= n8np {
		t.Error("prefetching must increase throughput")
	}
	// "5 cores can deliver the peak throughput even with N = 8".
	if n8p < 24 {
		t.Errorf("N=8 prefetch at 5 cores = %.1f Mops; want near peak (>24)", n8p)
	}
	if n8np > n8p/2 {
		t.Errorf("N=8 no-prefetch (%.1f) should be less than half of prefetch (%.1f)", n8np, n8p)
	}
}

func TestShapeFig9(t *testing.T) {
	defer short(t)()
	_, rep := Fig9Throughput(cluster.Apt())
	mops := func(point, sys string) float64 { return metric(t, rep, point+"/"+sys, "mops") }
	pilaf, farmEm, farmVar, herd := mops("Apt/put=5", SysPilaf), mops("Apt/put=5", SysFaRM),
		mops("Apt/put=5", SysFaRMVar), mops("Apt/put=5", SysHERD)
	if herd < 24 || herd > 30 {
		t.Errorf("HERD read-intensive = %.1f Mops, want ~26", herd)
	}
	// "over 2X higher than FaRM-KV and Pilaf" (vs Pilaf and FaRM-VAR;
	// inline FaRM-em is closer at 32 B values).
	if r := metric(t, rep, "shape", "herd_over_pilaf"); r < 2 {
		t.Errorf("HERD (%.1f) should be >2x Pilaf (%.1f)", herd, pilaf)
	}
	if r := metric(t, rep, "shape", "herd_over_farm_var"); r < 1.7 {
		t.Errorf("HERD (%.1f) should be ~2x FaRM-em-VAR (%.1f)", herd, farmVar)
	}
	if farmEm <= pilaf {
		t.Errorf("FaRM-em (%.1f) should beat Pilaf (%.1f) on GETs", farmEm, pilaf)
	}
	// HERD throughput is workload-insensitive for 48 B items.
	if h100 := mops("Apt/put=100", SysHERD); h100 < herd*0.9 {
		t.Errorf("HERD 100%% PUT (%.1f) should match read-intensive (%.1f)", h100, herd)
	}
	// PUT throughput exceeds GET throughput for the emulated systems
	// (the paper's surprising observation).
	if p100 := mops("Apt/put=100", SysPilaf); p100 <= pilaf {
		t.Errorf("Pilaf 100%% PUT (%.1f) should exceed its GET throughput (%.1f)", p100, pilaf)
	}
	// Susitna (PCIe 2.0) tops out lower for every system.
	if sHerd := mops("Susitna/put=5", SysHERD); sHerd >= herd {
		t.Errorf("Susitna HERD (%.1f) should trail Apt (%.1f)", sHerd, herd)
	}
	// Every GET hit the clients sampled returned the value they wrote,
	// and no measured GET missed.
	for arm := range rep.Arms {
		if arm == "shape" {
			continue
		}
		if v, m := metric(t, rep, arm, "verify_errors"), metric(t, rep, arm, "get_misses"); v != 0 || m != 0 {
			t.Errorf("%s: %v verify errors, %v GET misses, want 0", arm, v, m)
		}
	}
}

func TestShapeFig10(t *testing.T) {
	defer short(t)()
	_, rep := Fig10ValueSize(cluster.Apt())
	mops := func(sv int, sys string) float64 { return metric(t, rep, fmt.Sprintf("sv=%d/%s", sv, sys), "mops") }
	// HERD >= native READ throughput (26) up to 60 B values.
	for _, sv := range []int{4, 8, 16, 32} {
		if h := mops(sv, SysHERD); h < 24 {
			t.Errorf("HERD at SV=%d = %.1f Mops; want >=24 (near native READ rate)", sv, h)
		}
	}
	// FaRM-em declines fastest with value size (READ grows as 6*(16+SV)).
	farmDrop := mops(32, SysFaRM) / mops(256, SysFaRM)
	herdDrop := mops(32, SysHERD) / mops(256, SysHERD)
	if farmDrop < herdDrop {
		t.Errorf("FaRM-em should decline faster than HERD (drops: farm %.1fx, herd %.1fx)",
			farmDrop, herdDrop)
	}
	// At 1 KB values HERD, Pilaf and FaRM-em-VAR converge (all
	// bandwidth-bound); inline FaRM-em is off on its own, strangled by
	// 6 KB+ neighborhood READs.
	herd1000, pilaf1000, farm1000, farmVar1000 :=
		mops(1000, SysHERD), mops(1000, SysPilaf), mops(1000, SysFaRM), mops(1000, SysFaRMVar)
	lo, hi := min(herd1000, pilaf1000, farmVar1000), max(herd1000, pilaf1000, farmVar1000)
	if hi > 2.0*lo {
		t.Errorf("at 1 KB values HERD/Pilaf/FaRM-VAR should converge; got %.1f/%.1f/%.1f",
			herd1000, pilaf1000, farmVar1000)
	}
	if farm1000 >= lo {
		t.Errorf("inline FaRM-em at 1 KB (%.1f) should be the slowest (others >= %.1f)", farm1000, lo)
	}
}

func TestShapeFig11(t *testing.T) {
	defer short(t)()
	_, rep := Fig11LatencyThroughput(cluster.Apt())
	type point struct{ mops, mean float64 }
	// knee: the point at the first load level reaching 95% of the
	// system's peak throughput (the paper compares latencies "at their
	// peak throughput").
	knee := func(sys string) point {
		var pts []point
		peak := 0.0
		for _, nc := range fig11Clients {
			arm := fmt.Sprintf("%s/clients=%d", sys, nc)
			pts = append(pts, point{metric(t, rep, arm, "mops"), metric(t, rep, arm, "mean_us")})
			peak = max(peak, pts[len(pts)-1].mops)
		}
		for _, p := range pts {
			if p.mops >= 0.95*peak {
				return p
			}
		}
		return pts[len(pts)-1]
	}
	herd := knee(SysHERD)
	// "26 Mops with ~5 us average latency".
	if herd.mops < 24 {
		t.Errorf("HERD peak = %.1f Mops, want ~26", herd.mops)
	}
	if herd.mean < 1.5 || herd.mean > 8 {
		t.Errorf("HERD latency at peak = %.1f us, want ~2-5", herd.mean)
	}
	// HERD's latency at its (much higher) peak is well below the
	// READ-based systems' latency at theirs ("over 2X lower than Pilaf
	// and FaRM-KV at their peak throughput").
	for _, sys := range []string{SysPilaf, SysFaRMVar} {
		p := knee(sys)
		if p.mean < herd.mean*1.5 {
			t.Errorf("%s knee latency %.1f us should be >1.5x HERD's %.1f us", sys, p.mean, herd.mean)
		}
		if p.mops > herd.mops/1.7 {
			t.Errorf("%s peak (%.1f) should be well below HERD's (%.1f)", sys, p.mops, herd.mops)
		}
	}
}

func TestShapeFig12(t *testing.T) {
	if testing.Short() {
		t.Skip("client-scaling sweep is slow")
	}
	defer short(t)()
	_, rep := Fig12ClientScaling(cluster.Apt())
	at260 := metric(t, rep, "clients=260/ws=4", "mops")
	at500w4 := metric(t, rep, "clients=500/ws=4", "mops")
	at500w16 := metric(t, rep, "clients=500/ws=16", "mops")
	if at260 < 24 {
		t.Errorf("HERD at 260 clients = %.1f Mops; should still be at peak", at260)
	}
	if at500w4 > at260*0.75 {
		t.Errorf("HERD WS=4 at 500 clients (%.1f) should decline markedly from 260 (%.1f)",
			at500w4, at260)
	}
	if at500w16 < at500w4*1.2 {
		t.Errorf("WS=16 (%.1f) should hold up much better than WS=4 (%.1f) at 500 clients",
			at500w16, at500w4)
	}
	if d := metric(t, rep, "shape", "ws4_decline_clients"); d <= 260 {
		t.Errorf("WS=4 throughput should hold past ~260 clients, fell below 95%% of peak at %v", d)
	}
}

func TestShapeFig13(t *testing.T) {
	defer short(t)()
	_, rep := Fig13CPUCores(cluster.Apt())
	mops := func(cores int, sys string) float64 {
		return metric(t, rep, fmt.Sprintf("cores=%d/%s", cores, sys), "mops")
	}
	herd1 := mops(1, SysHERD)
	// "with a uniform workload and using only a single core, HERD can
	// deliver 6.3 Mops".
	if herd1 < 5.3 || herd1 > 7.6 {
		t.Errorf("HERD 1-core = %.1f Mops, want ~6.3", herd1)
	}
	// Pilaf needs the most cores (RECV reposting).
	if pilaf1 := mops(1, SysPilaf); pilaf1 >= herd1 {
		t.Errorf("Pilaf per-core PUT (%.1f) should trail HERD (%.1f)", pilaf1, herd1)
	}
	// "HERD delivers over 95% of its maximum throughput with 5 cores".
	if herd5, herd7 := mops(5, SysHERD), mops(7, SysHERD); herd5 < herd7*0.95 {
		t.Errorf("HERD 5-core (%.1f) should be >=95%% of 7-core (%.1f)", herd5, herd7)
	}
	if c := metric(t, rep, "shape", "herd_cores_to_95pct"); c > 5 {
		t.Errorf("HERD needs %v cores to reach 95%% of its peak, want <=5", c)
	}
}

func TestShapeFig14(t *testing.T) {
	defer short(t)()
	_, rep := Fig14Skew(cluster.Apt())
	// "delivering its maximum performance even when the Zipf parameter
	// is .99".
	if r := metric(t, rep, "shape", "zipf_over_uniform"); r < 0.9 {
		t.Errorf("Zipf total (%.1f) should match uniform (%.1f)",
			metric(t, rep, "zipf", "mops"), metric(t, rep, "uniform", "mops"))
	}
	// Most-loaded core within ~2x of least-loaded.
	if skew := metric(t, rep, "shape", "zipf_core_skew"); skew > 2.2 {
		t.Errorf("per-core Zipf skew %.2fx exceeds the paper's ~1.5x", skew)
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	tbl, _ := Table1Verbs(cluster.Apt())
	want := map[string][3]string{
		"SEND/RECV": {"yes", "yes", "yes"},
		"WRITE":     {"yes", "yes", "no"},
		"READ":      {"yes", "no", "no"},
	}
	for _, r := range tbl.Rows {
		w := want[r[0]]
		if r[1] != w[0] || r[2] != w[1] || r[3] != w[2] {
			t.Errorf("table1 row %v, want %v", r, w)
		}
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := &Table{ID: "x", Title: "t", Columns: []string{"a", "bb"}}
	tbl.AddRow("1", "2")
	tbl.AddNote("n=%d", 3)
	s := tbl.String()
	for _, want := range []string{"== x: t ==", "a  bb", "1  2", "note: n=3"} {
		if !strings.Contains(s, want) {
			t.Errorf("formatted table missing %q in:\n%s", want, s)
		}
	}
}
