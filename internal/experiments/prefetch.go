package experiments

import (
	"fmt"

	"herdkv/internal/cluster"
	"herdkv/internal/sim"
	"herdkv/internal/verbs"
	"herdkv/internal/wire"
)

// Fig7Prefetch reproduces Figure 7: a WRITE/SEND echo server that
// performs N random memory accesses per request, with and without the
// request pipeline's prefetching, across core counts. Prefetching lets
// fewer cores deliver peak throughput even at N=8.
func Fig7Prefetch(spec cluster.Spec) (*Table, *Report) {
	t := &Table{
		ID:      "fig7",
		Title:   fmt.Sprintf("Prefetching effect on throughput (Mops) — %s", spec.Name),
		Columns: []string{"cores", "N=2 no-prefetch", "N=2 prefetch", "N=8 no-prefetch", "N=8 prefetch"},
	}
	rep := newReport("fig7", spec)
	for cores := 1; cores <= 5; cores++ {
		m := rep.Arm(fmt.Sprintf("cores=%d", cores))
		t.AddRow(fmt.Sprintf("%d", cores),
			m.mops("n2_mops", prefetchEchoMops(spec, cores, 2, false)),
			m.mops("n2_prefetch_mops", prefetchEchoMops(spec, cores, 2, true)),
			m.mops("n8_mops", prefetchEchoMops(spec, cores, 8, false)),
			m.mops("n8_prefetch_mops", prefetchEchoMops(spec, cores, 8, true)))
	}
	t.AddNote("WRITE requests + UD SEND responses, 32 B; N random DRAM accesses per request")
	return t, rep
}

// prefetchEchoMops measures a HERD-style echo (WRITE in, SEND/UD out)
// whose server does nAccesses random memory accesses per request.
func prefetchEchoMops(spec cluster.Spec, cores, nAccesses int, prefetch bool) float64 {
	cl := cluster.New(spec, 1+clientMachines, 1)
	srv := cl.Machine(0)
	payload := make([]byte, 32)
	var count uint64

	type end struct {
		udSrv *verbs.QP
		udCli *verbs.QP
	}
	ends := make([]*end, inboundProcs)

	srvMR := srv.Verbs.RegisterMR(inboundProcs * 1024)
	nextReq := 0
	srvMR.Watch(0, inboundProcs*1024, func(off, _ int) {
		idx := off / 1024
		core := nextReq % cores
		nextReq++
		service := srv.CPU.RequestService(nAccesses, prefetch)
		srv.CPU.Core(core).Submit(service, func(sim.Time) {
			e := ends[idx]
			mustPost(e.udSrv.PostSend(verbs.SendWR{
				Verb: verbs.SEND, Data: payload, Dest: e.udCli, Inline: true,
			}))
		})
	})

	for i := 0; i < inboundProcs; i++ {
		i := i
		m := cl.Machine(1 + i%clientMachines)
		e := &end{}
		ends[i] = e

		reqQP := m.Verbs.CreateQP(wire.UC)
		srvQP := srv.Verbs.CreateQP(wire.UC)
		if err := verbs.Connect(reqQP, srvQP); err != nil {
			panic(err)
		}
		e.udSrv = srv.Verbs.CreateQP(wire.UD)
		e.udCli = m.Verbs.CreateQP(wire.UD)
		mr := m.Verbs.RegisterMR(1024)
		for w := 0; w < 2*inboundWindow; w++ {
			mustPost(e.udCli.PostRecv(mr, 0, 1024, 0))
		}
		// Each chain reposts from its own response's arrival.
		post := func() {
			mustPost(reqQP.PostSend(verbs.SendWR{
				Verb: verbs.WRITE, Data: payload, Remote: srvMR, RemoteOff: i * 1024, Inline: true,
			}))
		}
		e.udCli.RecvCQ().SetHandler(func(verbs.Completion) {
			count++
			mustPost(e.udCli.PostRecv(mr, 0, 1024, 0))
			post()
		})
		for w := 0; w < inboundWindow; w++ {
			post()
		}
	}
	return measureMops(cl, &count)
}
