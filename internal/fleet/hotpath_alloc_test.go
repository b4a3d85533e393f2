package fleet

import (
	"testing"

	"herdkv/internal/cluster"
	"herdkv/internal/kv"
	"herdkv/internal/lint/hotalloc/hotgate"
)

// TestHotpathAllocFree gates the fleet's //herd:hotpath functions at 0
// allocs/op: the precomputed replica lookup, the view and health
// bookkeeping, and the pooled op records from issue to the caller's
// callback. The round trip writes a key and reads an absent one, since
// a hit's value is the caller's copy and allocates by contract.
func TestHotpathAllocFree(t *testing.T) {
	cl := cluster.New(cluster.Apt(), 5, 1)
	d, err := NewDeployment([]*cluster.Machine{cl.Machine(0), cl.Machine(1), cl.Machine(2)}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// c makes live round trips; poked is a client whose health state the
	// direct gates may perturb.
	c, err := d.ConnectClient(cl.Machine(3))
	if err != nil {
		t.Fatal(err)
	}
	poked, err := d.ConnectClient(cl.Machine(4))
	if err != nil {
		t.Fatal(err)
	}

	key, absent := kv.FromUint64(7), kv.FromUint64(404)
	value := []byte("gate value")
	served := 0
	cb := func(r kv.Result) {
		if r.Err == nil {
			served++
		}
	}
	roundTrip := func() {
		if err := c.Put(key, value, cb); err != nil {
			t.Fatal(err)
		}
		if err := c.Get(absent, cb); err != nil {
			t.Fatal(err)
		}
		cl.Eng.Run()
	}
	ring := d.ring
	order := make([]int, 0, 3)
	lacks, holds := replicaRank{settled: true}, replicaRank{present: true, ver: kv.Version{Seq: 1}}

	hotgate.Check(t, ".", map[string]func(){
		"Ring.Replicas":           func() { _ = ring.Replicas(key, 2) },
		"Ring.Size":               func() { _ = ring.Size() },
		"mix64":                   func() { _ = mix64(uint64(len(order))) },
		"Deployment.Replication":  func() { _ = d.Replication() },
		"Deployment.Replicas":     func() { _ = d.Replicas(key) },
		"Deployment.soloReadable": func() { _ = d.soloReadable(key) },
		"Deployment.upReplicas":   func() { order = d.upReplicas(order[:0], d.Replicas(key)) },
		"Deployment.inView":       func() { _ = d.inView(0) },
		"Deployment.catchingUp":   func() { _ = d.catchingUp(0) },
		"Client.now":              func() { _ = poked.now() },
		"Client.markSuspect":      func() { poked.markSuspect(0) },
		"replicaRank.below":       func() { _ = lacks.below(&holds) },
		"Client.start":            roundTrip,
		"Client.finish":           roundTrip,
		"Client.getOp":            roundTrip,
		"op.slot":                 roundTrip,
		"op.finish":               roundTrip,
		"op.resolve":              roundTrip,
		"Client.Get":              roundTrip,
		"Client.Put":              roundTrip,
		"Client.ask":              roundTrip,
		"op.resolveGet":           roundTrip,
		"op.resolveWrite":         roundTrip,
	})
	if served == 0 || c.Inflight() != 0 || c.Failed() != 0 {
		t.Fatalf("gate round trips: %d served, %d in flight, %d failed", served, c.Inflight(), c.Failed())
	}
}
