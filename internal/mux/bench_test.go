package mux

import (
	"fmt"
	"testing"

	"herdkv/internal/cluster"
	"herdkv/internal/kv"
)

// benchClient is a PoolClient that holds each accepted op until the
// benchmark loop resolves it, so a loop iteration is exactly one
// submit→pump and one complete→pump.
type benchClient struct {
	gateClient
	pending []func(kv.Result)
}

func (c *benchClient) Get(key kv.Key, cb func(kv.Result)) error {
	c.pending = append(c.pending, cb)
	return nil
}
func (c *benchClient) Inflight() int { return len(c.pending) }

func (c *benchClient) resolve() {
	cb := c.pending[len(c.pending)-1]
	c.pending = c.pending[:len(c.pending)-1]
	cb(kv.Result{IsGet: true, Status: kv.StatusHit})
}

// BenchmarkEndpointPump measures one GET through the endpoint scheduler
// (submit, issue, complete) on an endpoint with many open channels, all
// idle but the one submitting. The channel moves by a large stride each
// op, so the cursor's distance to the next ready channel varies. The
// scan that visited every channel grew with the channel count; the
// ready bitmap reads one word per 64 channels, so up to a few thousand
// channels the per-op cost should stay roughly flat.
func BenchmarkEndpointPump(b *testing.B) {
	for _, n := range []int{64, 2048, 65536} {
		b.Run(fmt.Sprintf("channels=%d", n), func(b *testing.B) {
			cli := &benchClient{}
			cl := cluster.New(cluster.Apt(), 1, 1)
			ep, err := New(cl.Machine(0), []PoolClient{cli}, Config{})
			if err != nil {
				b.Fatal(err)
			}
			chans := make([]*Channel, n)
			for i := range chans {
				if chans[i], err = ep.OpenChannel(); err != nil {
					b.Fatal(err)
				}
			}
			key := kv.FromUint64(1)
			cb := func(kv.Result) {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				if err := chans[i*7919%n].Get(key, cb); err != nil {
					b.Fatal(err)
				}
				cli.resolve()
			}
		})
	}
}
