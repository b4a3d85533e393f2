package experiments

import (
	"fmt"

	"herdkv/internal/cluster"
	"herdkv/internal/sim"
	"herdkv/internal/verbs"
	"herdkv/internal/wire"
)

// Fig6AllToAll reproduces Figure 6: all-to-all communication with N
// client processes and N server processes, 32-byte inlined unsignaled
// messages. Inbound WRITEs over UC scale; outbound WRITEs over UC
// collapse as N*N queue pairs outgrow the server NIC's context cache;
// outbound SENDs over UD scale because each server process needs only
// one UD queue pair.
func Fig6AllToAll(spec cluster.Spec) (*Table, *Report) {
	t := &Table{
		ID:      "fig6",
		Title:   fmt.Sprintf("All-to-all throughput (Mops), 32 B — %s", spec.Name),
		Columns: []string{"N", "In-WRITE-UC", "Out-WRITE-UC", "Out-SEND-UD"},
	}
	rep := newReport("fig6", spec)
	for _, n := range []int{1, 2, 4, 6, 8, 10, 12, 14, 16} {
		m := rep.Arm(fmt.Sprintf("N=%d", n))
		in := m.mops("in_write_uc_mops", allToAllMops(spec, n, "in-write"))
		outW := m.mops("out_write_uc_mops", allToAllMops(spec, n, "out-write"))
		outS := m.mops("out_send_ud_mops", allToAllMops(spec, n, "out-send"))
		t.AddRow(fmt.Sprintf("%d", n), in, outW, outS)
	}
	t.AddNote("N*N UC queue pairs at the server for WRITE modes; N UD queue pairs for SEND mode")
	return t, rep
}

const allToAllWindow = 8

func allToAllMops(spec cluster.Spec, n int, mode string) float64 {
	cl := cluster.New(spec, 1+n, 1)
	srv := cl.Machine(0)
	rnd := sim.NewRand(7)
	size := 32
	payload := make([]byte, size)
	var count uint64

	// post[x] posts one op of process x, the client (in-write) or
	// server (out-write, out-send) process that drives the op; each
	// chain reposts from its own op's landing.
	post := make([]func(), n)
	switch mode {
	case "in-write":
		// Client proc i holds a UC QP to each server proc; each op picks
		// a random server proc.
		srvMR := srv.Verbs.RegisterMR(n * n * 64)
		srvMR.Watch(0, n*n*64, func(off, _ int) { count++; post[off/64%n]() }) // off/64 is slot s*n+c
		for c := 0; c < n; c++ {
			m := cl.Machine(1 + c)
			qps := make([]*verbs.QP, n)
			for s := 0; s < n; s++ {
				qps[s] = m.Verbs.CreateQP(wire.UC)
				sq := srv.Verbs.CreateQP(wire.UC)
				if err := verbs.Connect(qps[s], sq); err != nil {
					panic(err)
				}
			}
			c := c
			post[c] = func() {
				s := rnd.Intn(n)
				mustPost(qps[s].PostSend(verbs.SendWR{
					Verb: verbs.WRITE, Data: payload,
					Remote: srvMR, RemoteOff: (s*n + c) * 64, Inline: true,
				}))
			}
			for w := 0; w < allToAllWindow; w++ {
				post[c]()
			}
		}

	case "out-write":
		// Server proc j holds a UC QP to each client; each op picks a
		// random client. N*N send-side QPs at the server NIC.
		cliMRs := make([]*verbs.MR, n)
		for c := 0; c < n; c++ {
			cliMRs[c] = cl.Machine(1 + c).Verbs.RegisterMR(n * 64)
			cliMRs[c].Watch(0, n*64, func(off, _ int) { count++; post[off/64]() })
		}
		for s := 0; s < n; s++ {
			qps := make([]*verbs.QP, n)
			for c := 0; c < n; c++ {
				qps[c] = srv.Verbs.CreateQP(wire.UC)
				cq := cl.Machine(1 + c).Verbs.CreateQP(wire.UC)
				if err := verbs.Connect(qps[c], cq); err != nil {
					panic(err)
				}
			}
			s := s
			post[s] = func() {
				c := rnd.Intn(n)
				mustPost(qps[c].PostSend(verbs.SendWR{
					Verb: verbs.WRITE, Data: payload,
					Remote: cliMRs[c], RemoteOff: s * 64, Inline: true,
				}))
			}
			for w := 0; w < allToAllWindow; w++ {
				post[s]()
			}
		}

	case "out-send":
		// Server proc j uses ONE UD QP for all clients (the datagram
		// advantage); each op picks a random client.
		cliQPs := make([]*verbs.QP, n)
		for c := 0; c < n; c++ {
			c := c
			m := cl.Machine(1 + c)
			mr := m.Verbs.RegisterMR(1024)
			cliQPs[c] = m.Verbs.CreateQP(wire.UD)
			for w := 0; w < 4*allToAllWindow; w++ {
				mustPost(cliQPs[c].PostRecv(mr, 0, 1024, 0))
			}
			cliQPs[c].RecvCQ().SetHandler(func(comp verbs.Completion) {
				if comp.Flushed {
					return
				}
				count++
				mustPost(cliQPs[c].PostRecv(mr, 0, 1024, 0))
				// The sender process: comp.SrcQPN is the server proc's
				// UD QP number, allocated sequentially.
				if s := int(comp.SrcQPN) - 1; s >= 0 && s < n {
					post[s]()
				}
			})
		}
		for s := 0; s < n; s++ {
			udQP := srv.Verbs.CreateQP(wire.UD)
			post[s] = func() {
				mustPost(udQP.PostSend(verbs.SendWR{
					Verb: verbs.SEND, Data: payload, Dest: cliQPs[rnd.Intn(n)], Inline: true,
				}))
			}
			for w := 0; w < allToAllWindow; w++ {
				post[s]()
			}
		}
	}
	return measureMops(cl, &count)
}
