package experiments

import (
	"fmt"
	"strings"

	"herdkv/internal/cluster"
	"herdkv/internal/sim"
	"herdkv/internal/verbs"
	"herdkv/internal/wire"
)

// echoCombo names a request/response verb pairing from Figure 5.
type echoCombo struct {
	name     string
	reqWrite bool // request as WRITE (else SEND)
	rspWrite bool // response as WRITE (else SEND)
}

// echoOpts is one rung of Figure 5's optimization ladder. Options are
// cumulative in the figure: basic -> +unreliable -> +unsignaled ->
// +inlined.
type echoOpts struct {
	name       string
	unreliable bool // UC for WRITEs and SENDs (UD for WR/SEND responses)
	unsignaled bool
	inlined    bool
}

var echoLadder = []echoOpts{
	{name: "basic"},
	{name: "+unreliable", unreliable: true},
	{name: "+unsignaled", unreliable: true, unsignaled: true},
	{name: "+inlined", unreliable: true, unsignaled: true, inlined: true},
}

// wrSend is HERD's hybrid: WRITE requests, SEND responses.
var wrSend = echoCombo{"WR/SEND", true, false}

// echoServer is the echo server's work: requests spread round-robin
// over its cores, each doing accesses random memory lookups before it
// replies, overlapped by the request pipeline when prefetch is set.
type echoServer struct {
	cores    int
	accesses int
	prefetch bool
}

// Fig5Echo reproduces Figure 5: ECHO throughput for verb combinations
// under the cumulative optimization ladder, 32-byte messages.
func Fig5Echo(spec cluster.Spec) (*Table, *Report) {
	t := &Table{
		ID:      "fig5",
		Title:   fmt.Sprintf("ECHO throughput (Mops), 32 B messages — %s", spec.Name),
		Columns: []string{"combo", "basic", "+unreliable", "+unsignaled", "+inlined"},
	}
	rep := newReport("fig5", spec)
	combos := []echoCombo{
		{"SEND/SEND", false, false},
		{"WR/WR", true, true},
		wrSend,
	}
	for _, combo := range combos {
		m := rep.Arm(combo.name)
		row := []string{combo.name}
		for _, opts := range echoLadder {
			row = append(row, m.mops(strings.TrimPrefix(opts.name, "+")+"_mops", echoMops(spec, combo, opts, 32, echoServer{cores: 8})))
		}
		t.AddRow(row...)
	}
	t.AddNote("WR/SEND responses go over UD once unreliable; SEND/SEND uses UC (UD is similar)")
	return t, rep
}

// Fig7Prefetch reproduces Figure 7: Figure 5's fully optimized WR/SEND
// echo with a server that performs N random memory accesses per
// request, with and without the request pipeline's prefetching, across
// core counts. Prefetching lets fewer cores deliver peak throughput even
// at N=8.
func Fig7Prefetch(spec cluster.Spec) (*Table, *Report) {
	t := &Table{
		ID:      "fig7",
		Title:   fmt.Sprintf("Prefetching effect on throughput (Mops) — %s", spec.Name),
		Columns: []string{"cores", "N=2 no-prefetch", "N=2 prefetch", "N=8 no-prefetch", "N=8 prefetch"},
	}
	rep := newReport("fig7", spec)
	inlined := echoLadder[len(echoLadder)-1]
	for cores := 1; cores <= 5; cores++ {
		m := rep.Arm(fmt.Sprintf("cores=%d", cores))
		mops := func(n int, prefetch bool) float64 {
			return echoMops(spec, wrSend, inlined, 32, echoServer{cores: cores, accesses: n, prefetch: prefetch})
		}
		t.AddRow(fmt.Sprintf("%d", cores),
			m.mops("n2_mops", mops(2, false)),
			m.mops("n2_prefetch_mops", mops(2, true)),
			m.mops("n8_mops", mops(8, false)),
			m.mops("n8_prefetch_mops", mops(8, true)))
	}
	t.AddNote("WRITE requests + UD SEND responses, 32 B; N random DRAM accesses per request")
	return t, rep
}

// echoMops measures echoes per second for a combo at one optimization
// level: 16 client processes against one echo server doing srvWork.
func echoMops(spec cluster.Spec, combo echoCombo, opts echoOpts, size int, srvWork echoServer) float64 {
	cl := cluster.New(spec, 1+clientMachines, 1)
	srv := cl.Machine(0)

	reqTr, rspTr := wire.RC, wire.RC
	if opts.unreliable {
		reqTr, rspTr = wire.UC, wire.UC
		if !combo.rspWrite && combo.reqWrite {
			rspTr = wire.UD // WR/SEND: the HERD hybrid
		}
	}
	signaled := !opts.unsignaled
	inline := opts.inlined && size <= spec.NIC.InlineMax

	var count uint64
	nextCore := 0
	p := srv.CPU.Params()

	// respond issues the response for client proc idx once the server CPU
	// has polled up and served the request. SEND-based requests cost a
	// RECV repost.
	type clientEnd struct {
		rspWriteQP *verbs.QP // server->client UC/RC QP (WRITE responses)
		rspSendQP  *verbs.QP // server-side QP for SEND responses
		dstQP      *verbs.QP // client-side QP receiving SEND responses
		cliMR      *verbs.MR
	}
	ends := make([]*clientEnd, inboundProcs)
	payload := make([]byte, size)

	respond := func(idx int) {
		cpu := srv.CPU.RequestService(srvWork.accesses, srvWork.prefetch)
		if !combo.reqWrite {
			cpu += p.RecvRepost
		}
		core := nextCore % srvWork.cores
		nextCore++
		srv.CPU.Core(core).Submit(cpu, func(sim.Time) {
			e := ends[idx]
			if combo.rspWrite {
				mustPost(e.rspWriteQP.PostSend(verbs.SendWR{
					Verb: verbs.WRITE, Data: payload, Remote: e.cliMR,
					Inline: inline, Signaled: signaled,
				}))
			} else {
				mustPost(e.rspSendQP.PostSend(verbs.SendWR{
					Verb: verbs.SEND, Data: payload, Dest: e.dstQP,
					Inline: inline, Signaled: signaled,
				}))
			}
		})
	}

	srvReqMR := srv.Verbs.RegisterMR(inboundProcs * 1024)
	if combo.reqWrite {
		srvReqMR.Watch(0, inboundProcs*1024, func(off, n int) {
			respond(off / 1024)
		})
	}

	for i := 0; i < inboundProcs; i++ {
		i := i
		m := cl.Machine(1 + i%clientMachines)
		e := &clientEnd{cliMR: m.Verbs.RegisterMR(1024)}
		ends[i] = e

		// Request path.
		reqQP := m.Verbs.CreateQP(reqTr)
		srvReqQP := srv.Verbs.CreateQP(reqTr)
		if err := verbs.Connect(reqQP, srvReqQP); err != nil {
			panic(err)
		}
		// post issues one request; each chain reposts from its own
		// response's arrival.
		post := func() {
			if combo.reqWrite {
				mustPost(reqQP.PostSend(verbs.SendWR{
					Verb: verbs.WRITE, Data: payload, Remote: srvReqMR, RemoteOff: i * 1024,
					Inline: inline, Signaled: signaled,
				}))
			} else {
				mustPost(reqQP.PostSend(verbs.SendWR{
					Verb: verbs.SEND, Data: payload,
					Inline: inline, Signaled: signaled,
				}))
			}
		}
		if !combo.reqWrite {
			// SEND requests: server pre-posts and replenishes RECVs.
			// (Request bytes are not inspected, so the RECVs may share a
			// staging buffer.)
			stage := srv.Verbs.RegisterMR(1024)
			for w := 0; w < 2*inboundWindow; w++ {
				mustPost(srvReqQP.PostRecv(stage, 0, 1024, 0))
			}
			srvReqQP.RecvCQ().SetHandler(func(verbs.Completion) {
				mustPost(srvReqQP.PostRecv(stage, 0, 1024, 0))
				respond(i)
			})
		}

		// Response path.
		if combo.rspWrite {
			e.rspWriteQP = srv.Verbs.CreateQP(rspTr)
			cliRsp := m.Verbs.CreateQP(rspTr)
			if err := verbs.Connect(e.rspWriteQP, cliRsp); err != nil {
				panic(err)
			}
			e.cliMR.Watch(0, 1024, func(off, n int) { count++; post() })
		} else {
			e.rspSendQP = srv.Verbs.CreateQP(rspTr)
			e.dstQP = m.Verbs.CreateQP(rspTr)
			if rspTr != wire.UD {
				if err := verbs.Connect(e.rspSendQP, e.dstQP); err != nil {
					panic(err)
				}
			}
			for w := 0; w < 2*inboundWindow; w++ {
				mustPost(e.dstQP.PostRecv(e.cliMR, 0, 1024, 0))
			}
			e.dstQP.RecvCQ().SetHandler(func(verbs.Completion) {
				count++
				mustPost(e.dstQP.PostRecv(e.cliMR, 0, 1024, 0))
				post()
			})
		}

		for w := 0; w < inboundWindow; w++ {
			post()
		}
	}
	return measureMops(cl, &count)
}
