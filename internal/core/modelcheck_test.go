package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"herdkv/internal/cluster"
	"herdkv/internal/kv"
)

// TestModelCheckEndToEnd drives random GET/PUT sequences through
// the full stack — client windowing, UC WRITEs across the simulated
// fabric, request-region polling, MICA partitions, UD SEND responses —
// and checks every completed operation against a model map.
//
// Because MICA is lossy, a GET may legitimately miss on a key the model
// holds (eviction); what must never happen is a GET returning bytes that
// differ from the model's latest value, a PUT acking incorrectly,
// or an operation being dropped on a lossless fabric.
func TestModelCheckEndToEnd(t *testing.T) {
	f := func(opsRaw []uint16, seed int64) bool {
		if len(opsRaw) > 200 {
			opsRaw = opsRaw[:200]
		}
		rnd := rand.New(rand.NewSource(seed))
		cfg := smallConfig()
		cfg.NS = 3
		cl, srv, clients := newHERDn(t, cfg, 2)
		_ = srv
		model := make(map[kv.Key][]byte)
		violations := 0
		completed := 0

		// Sequential issue keeps the model's view linearizable: each op
		// completes before the next is issued.
		var step func(i int)
		step = func(i int) {
			if i >= len(opsRaw) {
				return
			}
			raw := opsRaw[i]
			key := kv.FromUint64(uint64(raw%37) + 1)
			c := clients[i%2]
			switch rnd.Intn(4) {
			case 0, 1: // GET x2 weight
				c.Get(key, func(r Result) {
					completed++
					want, in := model[key]
					if r.Status == kv.StatusHit {
						if !in || !bytes.Equal(r.Value, want) {
							violations++
						}
					} else if in {
						// Lossy-index miss: tolerated, but our configs
						// have ample capacity, so count separately.
						violations++
					}
					step(i + 1)
				})
			default: // PUT x2 weight
				val := []byte{byte(raw), byte(raw >> 8), byte(i)}
				c.Put(key, val, func(r Result) {
					completed++
					if r.Status == kv.StatusHit {
						model[key] = val
					}
					step(i + 1)
				})
			}
		}
		step(0)
		cl.Eng.Run()
		return violations == 0 && completed == len(opsRaw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// newHERDn builds a HERD deployment for the model checker, panicking on
// setup errors (quick.Check runs outside the test goroutine's Fatal).
func newHERDn(t *testing.T, cfg Config, nClients int) (*cluster.Cluster, *Server, []*Client) {
	t.Helper()
	cl := cluster.New(cluster.Apt(), 1+nClients, 1)
	srv, err := NewServer(cl.Machine(0), cfg)
	if err != nil {
		panic(err)
	}
	clients := make([]*Client, nClients)
	for i := range clients {
		clients[i], err = srv.ConnectClient(cl.Machine(1 + i))
		if err != nil {
			panic(err)
		}
	}
	return cl, srv, clients
}
