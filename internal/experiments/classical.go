package experiments

import (
	"fmt"

	"herdkv/internal/cluster"
	"herdkv/internal/kv"
	"herdkv/internal/mica"
	"herdkv/internal/sim"
	"herdkv/internal/stats"
	"herdkv/internal/wire"
	"herdkv/internal/workload"
)

// Classical compares HERD against the same MICA cache served over
// classical Ethernet with a kernel network stack — the contrast that
// motivates the whole paper (Section 2.2.1: "typical end-to-end (1/2
// RTT) latency in InfiniBand/RoCE is 1 us while that in modern classical
// Ethernet-based solutions is 10 us"). The kernel-stack model charges
// per-message syscall/interrupt CPU at both ends and carries packets on
// a 10 GbE fabric; the RDMA columns are the standard HERD deployment.
func Classical(spec cluster.Spec) (*Table, *Report) {
	t := &Table{
		ID:    "classical",
		Title: fmt.Sprintf("RDMA (%s) vs classical Ethernet kernel stack, 48 B items", spec.Name),
		Columns: []string{
			"metric", "HERD/RDMA", "kernel 10GbE",
		},
	}
	rep := newReport("classical", spec)
	rdma, kernel := rep.Arm("rdma"), rep.Arm("kernel")
	rd := RunE2E(DefaultE2E(spec, SysHERD))
	rdIdle := idleHERDLatency(spec)
	kt, kIdle := classicalKV(16)

	t.AddRow("idle GET latency (us)", rdma.us("idle_get_us", rdIdle.Microseconds()), kernel.us("idle_get_us", kIdle.Microseconds()))
	t.AddRow("throughput, 16 cores (Mops)", rdma.e2e(rd), kernel.mops("mops", kt))
	t.AddRow("loaded mean latency (us)", rdma.us("loaded_mean_us", rd.Mean.Microseconds()), "-")
	t.AddNote("kernel stack: ~1.5 us send syscall, ~2 us receive (interrupt+copy+wakeup) per message, both ends")
	t.AddNote("user-level stacks (DPDK/MICA) recover the throughput gap but not the latency gap (Section 6)")
	return t, rep
}

// idleHERDLatency measures a single unloaded HERD GET.
func idleHERDLatency(spec cluster.Spec) sim.Time {
	cfg := DefaultE2E(spec, SysHERD)
	cfg.Clients = 1
	cl, clients, _ := buildSystem(cfg)
	var lat sim.Time
	mustPost(clients[0].Get(kv.FromUint64(1), func(r kv.Result) { lat = r.Latency }))
	cl.Eng.Run()
	return lat
}

// Kernel network stack costs (per message, per host): the send-side
// syscall + driver path, and the receive-side interrupt, copy and
// wakeup. These are the 2010s-era Linux numbers behind the paper's
// "10 us" figure.
const (
	kernelTx = 1500 * sim.Nanosecond
	kernelRx = 2000 * sim.Nanosecond
)

// classicalKV runs the MICA cache behind a kernel-stack request/reply
// server on a 10 GbE fabric and returns saturated throughput (Mops) and
// idle GET latency.
func classicalKV(serverCores int) (float64, sim.Time) {
	eng := sim.New()
	// 10 GbE with a switch; framing ~ Ethernet+IP+UDP = 46 B.
	net := wire.NewNetwork(eng, wire.Params{
		Gbps: 10, PropDelay: sim.NS(600),
		HdrRC: 46, HdrUC: 46, HdrUD: 46, MTU: 1500,
	})
	nClients := 32
	for n := 0; n <= nClients; n++ {
		net.AddNode(wire.NodeID(n))
	}

	// Server: cores process requests (kernel rx + KV + kernel tx).
	cores := make([]*sim.Server, serverCores)
	for i := range cores {
		cores[i] = sim.NewServer(eng)
	}
	cache := mica.New(mica.Config{IndexBuckets: 1 << 12, BucketSlots: 8, LogBytes: 1 << 22})
	keys := uint64(4096)
	preloadKeys(keys, 32, cache.Put)

	var served uint64
	var val []byte // mica's Put copies, so one buffer serves every PUT
	nextCore := 0
	// serve runs the whole server-side path for one request and replies.
	serve := func(client wire.NodeID, isGet bool, key kv.Key, reply func()) {
		core := cores[nextCore%serverCores]
		nextCore++
		kvWork := 2 * 90 * sim.Nanosecond // unmasked DRAM lookups
		core.Submit(kernelRx+kvWork+kernelTx, func(sim.Time) {
			if isGet {
				cache.Get(key)
			} else {
				val = workload.AppendExpectedValue(val[:0], key, 32)
				cache.Put(key, val)
			}
			served++
			net.Send(0, client, wire.UD, 37, func(sim.Time) { reply() })
		})
	}

	// Idle latency probe: one GET with client-side kernel costs.
	var idle sim.Time
	{
		probeDone := false
		start := eng.Now()
		eng.After(kernelTx, func() { // client send syscall
			net.Send(1, 0, wire.UD, 16, func(sim.Time) {
				serve(1, true, kv.FromUint64(1), func() {
					eng.After(kernelRx, func() { // client receive path
						idle = eng.Now() - start
						probeDone = true
					})
				})
			})
		})
		eng.Run()
		if !probeDone {
			panic("classical probe did not complete")
		}
	}

	// Saturation: closed-loop clients (client CPU not modeled as a
	// bottleneck — one process per machine, windows of 8).
	for c := 1; c <= nClients; c++ {
		c := c
		gen := workload.NewGenerator(workload.ReadIntensive(keys, 32, int64(c)))
		var issue func()
		issue = func() {
			op := gen.Next()
			eng.After(kernelTx, func() {
				net.Send(wire.NodeID(c), 0, wire.UD, 16, func(sim.Time) {
					serve(wire.NodeID(c), op.IsGet, op.Key, func() {
						eng.After(kernelRx, issue)
					})
				})
			})
		}
		for w := 0; w < 8; w++ {
			issue()
		}
	}
	eng.RunUntil(Warmup)
	start := served
	eng.RunUntil(Warmup + Span)
	return stats.Throughput(served-start, Span), idle
}
