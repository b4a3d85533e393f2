package fleet

import (
	"testing"

	"herdkv/internal/cluster"
	"herdkv/internal/kv"
	"herdkv/internal/lint/hotalloc/hotgate"
)

// gateFleet builds a 3-shard fleet and two clients on it: one for live
// round trips, one whose health state the direct gates may perturb.
func gateFleet(t *testing.T, cfg Config) (*cluster.Cluster, *Deployment, *Client, *Client) {
	t.Helper()
	cl := cluster.New(cluster.Apt(), 5, 1)
	d, err := NewDeployment([]*cluster.Machine{cl.Machine(0), cl.Machine(1), cl.Machine(2)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	live, err := d.ConnectClient(cl.Machine(3))
	if err != nil {
		t.Fatal(err)
	}
	poked, err := d.ConnectClient(cl.Machine(4))
	if err != nil {
		t.Fatal(err)
	}
	return cl, d, live, poked
}

// TestHotpathAllocFree gates the fleet's //herd:hotpath functions at 0
// allocs/op: the precomputed replica lookup, the read-order and
// health bookkeeping, and both consistency modes' pooled op records
// from issue to the caller's callback. The round trips write a key and
// read an absent one, since a hit's value is the caller's copy and
// allocates by contract.
func TestHotpathAllocFree(t *testing.T) {
	cl, d, c, poked := gateFleet(t, testConfig())
	vcfg := testConfig()
	vcfg.Versioned = true
	vcl, _, vc, _ := gateFleet(t, vcfg)

	key, absent := kv.FromUint64(7), kv.FromUint64(404)
	value := []byte("gate value")
	served := 0
	cb := func(r kv.Result) {
		if r.Err == nil {
			served++
		}
	}
	firstAck := func() {
		if err := c.Put(key, value, cb); err != nil {
			t.Fatal(err)
		}
		if err := c.Get(absent, cb); err != nil {
			t.Fatal(err)
		}
		cl.Eng.Run()
	}
	versioned := func() {
		if err := vc.Put(key, value, cb); err != nil {
			t.Fatal(err)
		}
		if err := vc.Get(absent, cb); err != nil {
			t.Fatal(err)
		}
		vcl.Eng.Run()
	}
	both := func() { firstAck(); versioned() }
	ring := d.Ring()
	order := make([]int, 0, 3)
	lacks, holds := replicaRank{settled: true}, replicaRank{present: true, ver: kv.Version{Seq: 1}}

	hotgate.Check(t, ".", map[string]func(){
		"Ring.Replicas":           func() { _ = ring.Replicas(key, 2) },
		"Ring.Size":               func() { _ = ring.Size() },
		"mix64":                   func() { _ = mix64(uint64(len(order))) },
		"Deployment.Replication":  func() { _ = d.Replication() },
		"Deployment.Replicas":     func() { _ = d.Replicas(key) },
		"Deployment.soloReadable": func() { _ = d.soloReadable(key, d.Replicas(key)) },
		"Client.now":              func() { _ = poked.now() },
		"Client.markSuspect":      func() { poked.markSuspect(0) },
		"Client.readPreferred":    func() { _ = poked.readPreferred(0, 0) },
		"Client.readOrder":        func() { order = poked.readOrder(order, []int{0, 1, 2}) },
		"Client.triesBefore":      func() { _ = poked.triesBefore(0, 1) },
		"replicaRank.below":       func() { _ = lacks.below(&holds) },
		"Client.start":            both,
		"Client.finish":           both,
		"Client.getOp":            both,
		"op.slot":                 both,
		"op.finish":               both,
		"op.resolve":              both,
		"Client.Get":              both,
		"Client.Put":              both,
		"Client.tryGet":           firstAck,
		"op.resolveGet":           firstAck,
		"op.resolveWrite":         both,
		"Client.getVersioned":     versioned,
		"Client.ask":              versioned,
		"op.resolveGetVersioned":  versioned,
	})
	if served == 0 || c.Inflight() != 0 || vc.Inflight() != 0 || c.Failed() != 0 || vc.Failed() != 0 {
		t.Fatalf("gate round trips: %d served; first-ack %d in flight, %d failed; versioned %d in flight, %d failed",
			served, c.Inflight(), c.Failed(), vc.Inflight(), vc.Failed())
	}
}
