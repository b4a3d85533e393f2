package mux

import (
	"testing"

	"herdkv/internal/kv"
	"herdkv/internal/lint/hotalloc/hotgate"
)

// gateClient is a zero-state PoolClient for exercising the endpoint's
// scheduler kernels without a cluster behind them.
type gateClient struct{}

func (gateClient) Get(kv.Key, func(kv.Result)) error         { return nil }
func (gateClient) Put(kv.Key, []byte, func(kv.Result)) error { return nil }
func (gateClient) Inflight() int                             { return 0 }
func (gateClient) Window() int                               { return 4 }

// TestHotpathAllocFree gates the //herd:hotpath functions of the
// endpoint scheduler at 0 allocs/op.
func TestHotpathAllocFree(t *testing.T) {
	ep := &Endpoint{
		cfg:   Config{ChannelWindow: 4},
		pool:  []PoolClient{gateClient{}, gateClient{}},
		ready: make([]uint64, 3),
	}
	ch := &Channel{id: 130}
	hotgate.Check(t, ".", map[string]func(){
		"Endpoint.poolWithRoom": func() { _ = ep.poolWithRoom() },
		"Endpoint.updateReady":  func() { ep.updateReady(ch) },
		"Endpoint.nextReady":    func() { _ = ep.nextReady(100, 150) },
		"Endpoint.nextSet":      func() { _ = ep.nextSet(10, 150) },
		"opKind.kindName":       func() { _ = opPut.kindName() },
	})
}
