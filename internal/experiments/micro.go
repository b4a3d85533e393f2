package experiments

import (
	"fmt"

	"herdkv/internal/cluster"
	"herdkv/internal/sim"
	"herdkv/internal/telemetry"
	"herdkv/internal/verbs"
	"herdkv/internal/wire"
)

var payloadSizes = []int{4, 8, 16, 32, 64, 128, 256, 512, 1024}

// Fig2Latency reproduces Figure 2: average latency of WR-INLINE, WRITE,
// READ (signaled, over RC) and ECHO (inlined unsignaled WRITEs over UC)
// across payload sizes. Inline-dependent series stop at the NIC's
// InlineMax.
func Fig2Latency(spec cluster.Spec) (*Table, *Report) {
	t := &Table{
		ID:      "fig2",
		Title:   fmt.Sprintf("Verb and ECHO latency (us) vs payload size — %s", spec.Name),
		Columns: []string{"size", "WR-INLINE", "WRITE", "READ", "ECHO", "ECHO/2"},
	}
	rep := newReport("fig2", spec)
	reps := 64
	inlineMax := spec.NIC.InlineMax
	for _, size := range payloadSizes {
		m := rep.Arm(fmt.Sprintf("size=%d", size))
		wrInline, echo, half := "-", "-", "-"
		if size <= inlineMax {
			wrInline = m.us("wr_inline_us", signaledVerbLatency(spec, verbs.WRITE, size, true, reps).Microseconds())
			e := echoLatency(spec, size, reps).Microseconds()
			echo = m.us("echo_us", e)
			half = cell(e / 2)
		}
		write := m.us("write_us", signaledVerbLatency(spec, verbs.WRITE, size, false, reps).Microseconds())
		read := m.us("read_us", signaledVerbLatency(spec, verbs.READ, size, false, reps).Microseconds())
		t.AddRow(fmt.Sprintf("%d", size), wrInline, write, read, echo, half)
	}
	t.AddNote(fmt.Sprintf("WR-INLINE and ECHO use inlined payloads (max %d B); ECHO = two unsignaled inlined WRITEs over UC", inlineMax))
	return t, rep
}

// signaledVerbLatency measures one signaled verb's completion latency
// over RC between two otherwise idle machines.
func signaledVerbLatency(spec cluster.Spec, verb verbs.Verb, size int, inline bool, reps int) sim.Time {
	cl := cluster.New(spec, 2, 1)
	qa := cl.Machine(0).Verbs.CreateQP(wire.RC)
	qb := cl.Machine(1).Verbs.CreateQP(wire.RC)
	if err := verbs.Connect(qa, qb); err != nil {
		panic(err)
	}
	remote := cl.Machine(1).Verbs.RegisterMR(2048)
	local := cl.Machine(0).Verbs.RegisterMR(2048)
	payload := make([]byte, size)

	var lastDone func(sim.Time)
	qa.SendCQ().SetHandler(func(c verbs.Completion) { lastDone(c.At) })

	tel := cl.Telemetry()
	return meanLatencySerial(cl, reps, func(done func(sim.Time)) {
		start := cl.Eng.Now()
		lastDone = func(at sim.Time) { done(at - start) }
		// When tracing, each rep becomes one trace whose spans (pio, nic,
		// wire, dma, ..., cqe) partition the reported latency exactly.
		wr := verbs.SendWR{Verb: verb, Signaled: true, Trace: tel.StartTrace(verb.String(), start)}
		if verb == verbs.READ {
			wr.Remote, wr.Local, wr.Len = remote, local, size
		} else {
			wr.Data, wr.Remote, wr.Inline = payload, remote, inline
		}
		if err := qa.PostSend(wr); err != nil {
			panic(err)
		}
	})
}

// echoLatency measures a WRITE-based ECHO: the client WRITEs (inlined,
// unsignaled, UC) into the server, an echo process WRITEs the payload
// back, and the client observes its own memory.
func echoLatency(spec cluster.Spec, size int, reps int) sim.Time {
	cl := cluster.New(spec, 2, 1)
	srv, cli := cl.Machine(0), cl.Machine(1)
	cliQP := cli.Verbs.CreateQP(wire.UC)
	srvQP := srv.Verbs.CreateQP(wire.UC)
	if err := verbs.Connect(cliQP, srvQP); err != nil {
		panic(err)
	}
	srvMR := srv.Verbs.RegisterMR(1024)
	cliMR := cli.Verbs.RegisterMR(1024)
	payload := make([]byte, size)

	// Echo process: on request arrival, pay the CPU cost of detecting it
	// and posting the reply, then WRITE the payload back. The reply rides
	// the request's trace (curTrace) so one ECHO is one trace whose
	// "req." spans, "cpu" span, and "resp." spans sum to its latency.
	var curTrace *telemetry.Trace
	p := srv.CPU.Params()
	srvMR.Watch(0, 1024, func(off, n int) {
		srv.CPU.Core(0).Submit(p.PollCheck+p.PostSend, func(at sim.Time) {
			curTrace.SetPrefix("")
			curTrace.Mark("cpu", at)
			curTrace.SetPrefix("resp.")
			mustPost(srvQP.PostSend(verbs.SendWR{
				Verb: verbs.WRITE, Data: srvMR.Bytes()[:size],
				Remote: cliMR, Inline: true, Trace: curTrace,
			}))
		})
	})

	var onEcho func()
	cliMR.Watch(0, 1024, func(off, n int) { onEcho() })

	tel := cl.Telemetry()
	return meanLatencySerial(cl, reps, func(done func(sim.Time)) {
		start := cl.Eng.Now()
		curTrace = tel.StartTrace("ECHO", start)
		curTrace.SetPrefix("req.")
		onEcho = func() { done(cl.Eng.Now() - start) }
		mustPost(cliQP.PostSend(verbs.SendWR{Verb: verbs.WRITE, Data: payload, Remote: srvMR, Inline: true, Trace: curTrace}))
	})
}

// Fig3Inbound reproduces Figure 3: cumulative throughput of inbound
// verbs — many client processes issuing to one server machine.
func Fig3Inbound(spec cluster.Spec) (*Table, *Report) {
	t := &Table{
		ID:      "fig3",
		Title:   fmt.Sprintf("Inbound verbs throughput (Mops) vs payload size — %s", spec.Name),
		Columns: []string{"size", "WRITE-UC", "READ-RC", "WRITE-RC"},
	}
	rep := newReport("fig3", spec)
	for _, size := range payloadSizes {
		wUC := inboundMops(spec, wire.UC, verbs.WRITE, size)
		rRC := inboundMops(spec, wire.RC, verbs.READ, size)
		wRC := inboundMops(spec, wire.RC, verbs.WRITE, size)
		m := rep.Arm(fmt.Sprintf("size=%d", size))
		t.AddRow(fmt.Sprintf("%d", size), m.mops("write_uc_mops", wUC), m.mops("read_rc_mops", rRC), m.mops("write_rc_mops", wRC))
		if size == 32 {
			// "WRITEs achieve 35 Mops, about 34% higher than the maximum
			// READ throughput".
			rep.Arm("shape").Set("write_over_read", ratio(wUC, rRC), "x", Higher)
		}
	}
	t.AddNote(fmt.Sprintf("16 client processes on 8 machines, window-gated; WRITEs inlined up to %d B", spec.NIC.InlineMax))
	return t, rep
}

const (
	inboundProcs   = 16
	clientMachines = 8
	inboundWindow  = 16
)

// inboundMops drives many clients issuing `verb` at one server and
// measures the server-side completion rate.
func inboundMops(spec cluster.Spec, tr wire.Transport, verb verbs.Verb, size int) float64 {
	cl := cluster.New(spec, 1+clientMachines, 1)
	srv := cl.Machine(0)
	srvMR := srv.Verbs.RegisterMR(inboundProcs * 1024)

	// post[p] posts one of process p's verbs. Each chain reposts from
	// its own completion: its WRITE landing, or its READ's completion.
	var count uint64
	post := make([]func(), inboundProcs)
	if verb == verbs.WRITE {
		srvMR.Watch(0, inboundProcs*1024, func(off, n int) { count++; post[off/1024]() })
	}

	for p := 0; p < inboundProcs; p++ {
		p := p
		m := cl.Machine(1 + p%clientMachines)
		cq := m.Verbs.CreateQP(tr)
		sq := srv.Verbs.CreateQP(tr)
		if err := verbs.Connect(cq, sq); err != nil {
			panic(err)
		}
		local := m.Verbs.RegisterMR(2048)
		payload := make([]byte, size)

		if verb == verbs.READ {
			post[p] = func() {
				mustPost(cq.PostSend(verbs.SendWR{
					Verb: verbs.READ, Remote: srvMR, RemoteOff: p * 1024,
					Local: local, Len: size, Signaled: true,
				}))
			}
			cq.SendCQ().SetHandler(func(verbs.Completion) { count++; post[p]() })
		} else {
			post[p] = func() {
				mustPost(cq.PostSend(verbs.SendWR{
					Verb: verbs.WRITE, Data: payload,
					Remote: srvMR, RemoteOff: p * 1024,
					Inline: size <= spec.NIC.InlineMax,
				}))
			}
		}
		for w := 0; w < inboundWindow; w++ {
			post[p]()
		}
	}
	return measureMops(cl, &count)
}

// Fig4Outbound reproduces Figure 4: throughput of outbound verbs issued
// by one server machine to many clients.
func Fig4Outbound(spec cluster.Spec) (*Table, *Report) {
	t := &Table{
		ID:      "fig4",
		Title:   fmt.Sprintf("Outbound verbs throughput (Mops) vs payload size — %s", spec.Name),
		Columns: []string{"size", "WR-UC-INLINE", "SEND-UD", "WRITE-UC", "READ-RC"},
	}
	rep := newReport("fig4", spec)
	for _, size := range []int{2, 4, 16, 28, 32, 60, 64, 68, 128, 160, 192, 256} {
		m := rep.Arm(fmt.Sprintf("size=%d", size))
		wi := m.mops("wr_uc_inline_mops", outboundMops(spec, "wr-inline", size, 1, inboundWindow))
		sd := m.mops("send_ud_mops", outboundMops(spec, "send-ud", size, 1, inboundWindow))
		wu := m.mops("write_uc_mops", outboundMops(spec, "wr", size, 1, inboundWindow))
		rd := m.mops("read_rc_mops", outboundMops(spec, "read", size, 1, inboundWindow))
		t.AddRow(fmt.Sprintf("%d", size), wi, sd, wu, rd)
	}
	t.AddNote("16 server processes, one per client; write-combining steps appear at 64 B intervals")
	return t, rep
}

// outboundMops drives one server machine issuing to many clients, each
// process keeping `chains` posts in flight. The WRITE arms post `batch`
// WQEs behind each doorbell (PostSendBatch; a batch of one is a plain
// PostSend on the BlueFlame path); the SEND and READ arms post singly.
func outboundMops(spec cluster.Spec, kind string, size, batch, chains int) float64 {
	cl := cluster.New(spec, 1+clientMachines, 1)
	srv := cl.Machine(0)

	var count uint64
	for p := 0; p < inboundProcs; p++ {
		m := cl.Machine(1 + p%clientMachines)
		cliMR := m.Verbs.RegisterMR(4096)
		payload := make([]byte, size)

		// Each chain reposts from its own completion: its WRITE batch's
		// last landing, its SEND's delivery, or its READ's completion.
		var post func()
		switch kind {
		case "wr-inline", "wr":
			sq := srv.Verbs.CreateQP(wire.UC)
			cq := m.Verbs.CreateQP(wire.UC)
			if err := verbs.Connect(sq, cq); err != nil {
				panic(err)
			}
			inline := kind == "wr-inline" && size <= spec.NIC.InlineMax
			wrs := make([]verbs.SendWR, batch)
			for j := range wrs {
				wrs[j] = verbs.SendWR{Verb: verbs.WRITE, Data: payload, Remote: cliMR, RemoteOff: j * 64, Inline: inline}
			}
			post = func() { mustPost(sq.PostSendBatch(wrs)) }
			// Landings arrive in post order, so every batch-th one ends
			// a batch.
			landed := 0
			cliMR.Watch(0, 4096, func(off, n int) {
				count++
				if landed++; landed%batch == 0 {
					post()
				}
			})

		case "send-ud":
			sq := srv.Verbs.CreateQP(wire.UD)
			cq := m.Verbs.CreateQP(wire.UD)
			// Keep RECVs replenished.
			for i := 0; i < 2*inboundWindow; i++ {
				mustPost(cq.PostRecv(cliMR, 0, 4096, 0))
			}
			post = func() {
				mustPost(sq.PostSend(verbs.SendWR{Verb: verbs.SEND, Data: payload, Dest: cq, Inline: size <= spec.NIC.InlineMax}))
			}
			cq.RecvCQ().SetHandler(func(verbs.Completion) {
				count++
				mustPost(cq.PostRecv(cliMR, 0, 4096, 0))
				post()
			})

		case "read":
			sq := srv.Verbs.CreateQP(wire.RC)
			cq := m.Verbs.CreateQP(wire.RC)
			if err := verbs.Connect(sq, cq); err != nil {
				panic(err)
			}
			local := srv.Verbs.RegisterMR(4096)
			post = func() {
				mustPost(sq.PostSend(verbs.SendWR{
					Verb: verbs.READ, Remote: cliMR, Local: local, Len: size, Signaled: true,
				}))
			}
			sq.SendCQ().SetHandler(func(verbs.Completion) { count++; post() })
		}
		for w := 0; w < chains; w++ {
			post()
		}
	}
	return measureMops(cl, &count)
}
