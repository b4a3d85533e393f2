package nic_test

import (
	"testing"

	"herdkv/internal/nic"
	"herdkv/internal/pcie"
	"herdkv/internal/sim"
	"herdkv/internal/verbs"
	"herdkv/internal/wire"
)

func TestRCAckChargedToItsWrite(t *testing.T) {
	// The RC ACK books no NIC job of its own: on warm contexts a
	// signaled, inlined RC WRITE is one PU job at each end, the
	// requester's carrying RxAck and the responder's RCRespExtra.
	eng := sim.New()
	net := wire.NewNetwork(eng, wire.InfiniBand56())
	p := nic.ConnectX3()
	nics := [2]*nic.NIC{}
	hosts := [2]*verbs.Host{}
	for i := range nics {
		nics[i] = nic.New(eng, p, pcie.NewBus(eng, pcie.Gen3x8()), net, wire.NodeID(i))
		hosts[i] = verbs.NewHost(eng, nics[i])
	}
	qa, qb := hosts[0].CreateQP(wire.RC), hosts[1].CreateQP(wire.RC)
	if err := verbs.Connect(qa, qb); err != nil {
		t.Fatal(err)
	}
	mr := hosts[1].RegisterMR(64)
	done := 0
	qa.SendCQ().SetHandler(func(verbs.Completion) { done++ })
	post := func() {
		if err := qa.PostSend(verbs.SendWR{Verb: verbs.WRITE, Data: []byte("x"), Remote: mr, Inline: true, Signaled: true}); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	}
	post() // warms both context caches
	req, resp := nics[0].PUServer(), nics[1].PUServer()
	reqJobs, reqBusy, respJobs, respBusy := req.Jobs(), req.BusyTime(), resp.Jobs(), resp.BusyTime()
	post()
	if n, w := req.Jobs()-reqJobs, req.BusyTime()-reqBusy; n != 1 || w != p.TxWQE+p.RCReqExtra+p.RxAck+p.SignaledExtra {
		t.Errorf("requester: %d PU jobs, %v ps; want 1 job of TxWQE+RCReqExtra+RxAck+SignaledExtra = %v ps",
			n, w, p.TxWQE+p.RCReqExtra+p.RxAck+p.SignaledExtra)
	}
	if n, w := resp.Jobs()-respJobs, resp.BusyTime()-respBusy; n != 1 || w != p.RxWrite+p.RCRespExtra {
		t.Errorf("responder: %d PU jobs, %v ps; want 1 job of RxWrite+RCRespExtra = %v ps", n, w, p.RxWrite+p.RCRespExtra)
	}
	if done != 2 {
		t.Fatalf("%d completions, want 2", done)
	}
}
