package experiments

import (
	"fmt"

	"herdkv/internal/cluster"
	"herdkv/internal/kv"
	"herdkv/internal/sim"
)

// CPUUse reproduces the Section 5.6 analysis: HERD spends server CPU on
// GETs in exchange for one round trip, but the READ-based designs are
// not free either — their clients burn CPU issuing and polling multiple
// READs per GET, and their servers still need polling/RECV cores for
// PUTs. The table reports total busy CPU (server cores plus client-side
// verb handling) per million operations for the read-intensive 48 B
// workload.
func CPUUse(spec cluster.Spec) (*Table, *Report) {
	t := &Table{
		ID:    "cpuuse",
		Title: fmt.Sprintf("Total CPU per million ops (core-ms), 48 B read-intensive — %s", spec.Name),
		Columns: []string{
			"system", "Mops", "server core-ms/Mop", "client core-ms/Mop", "total",
		},
	}
	rep := newReport("cpuuse", spec)
	for _, sys := range AllSystems {
		r := runCPUUse(DefaultE2E(spec, sys))
		m := rep.Arm(sys)
		corems := func(name string, v float64) string {
			m.Set(name, v, "core-ms/Mop", Lower)
			return cell(v)
		}
		t.AddRow(sys, m.mops("mops", r.mops), corems("server_corems_per_mop", r.serverMS),
			corems("client_corems_per_mop", r.clientMS), corems("total_corems_per_mop", r.serverMS+r.clientMS))
	}
	t.AddNote("client CPU counts post_send and completion-poll work per verb; server CPU is measured core busy time")
	t.AddNote("provisioning must cover the PUT path even in read-heavy deployments (Section 5.6)")
	return t, rep
}

type cpuUseResult struct {
	mops               float64
	serverMS, clientMS float64
}

// clientVerbWork estimates client CPU per completed operation for each
// system: posts (post_send ~ the paper's 150 ns each) plus completion
// polling. Pilaf GETs issue 2.6 READs and poll each; FaRM-em-VAR issues
// 2; HERD and FaRM-em issue 1.
func clientVerbWork(sys string, p func() (post, poll sim.Time)) func(isGet bool) sim.Time {
	post, poll := p()
	return func(isGet bool) sim.Time {
		switch {
		case sys == SysPilaf && isGet:
			// 1.6 bucket READs + 1 value READ on average.
			return sim.Time(2.6 * float64(post+poll))
		case sys == SysFaRMVar && isGet:
			return 2 * (post + poll)
		default:
			return post + poll
		}
	}
}

func runCPUUse(cfg E2EConfig) cpuUseResult {
	cl, clients, _ := buildSystem(cfg)

	serverCPU := cl.Machine(0).CPU
	perOp := clientVerbWork(cfg.System, func() (sim.Time, sim.Time) {
		p := cfg.Spec.Host
		return p.PostSend, p.PollCheck
	})

	var completed uint64
	var clientBusy sim.Time
	d := driveE2E(cfg, cl, clients, func(ch *chain, _ kv.Result) {
		completed++
		clientBusy += perOp(ch.op.IsGet)
	})

	d.warm(Warmup)
	startOps := completed
	startBusy := serverBusy(serverCPU, cfg.Cores)
	startClient := clientBusy
	cl.Eng.RunFor(Span)

	ops := completed - startOps
	if ops == 0 {
		return cpuUseResult{}
	}
	srvBusy := serverBusy(serverCPU, cfg.Cores) - startBusy
	cliBusy := clientBusy - startClient
	perMop := func(busy sim.Time) float64 {
		// core-ms per million ops.
		return busy.Seconds() * 1000 / (float64(ops) / 1e6)
	}
	return cpuUseResult{
		mops:     float64(ops) / Span.Seconds() / 1e6,
		serverMS: perMop(srvBusy),
		clientMS: perMop(cliBusy),
	}
}

// serverBusy sums the busy time of cpu's first cores cores.
func serverBusy(cpu interface{ Core(int) *sim.Server }, cores int) sim.Time {
	var total sim.Time
	for i := 0; i < cores; i++ {
		total += cpu.Core(i).BusyTime()
	}
	return total
}
