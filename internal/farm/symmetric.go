package farm

import (
	"fmt"

	"herdkv/internal/cluster"
	"herdkv/internal/kv"
	"herdkv/internal/readclient"
	"herdkv/internal/sim"
)

// Symmetric is the deployment shape Section 2.3 describes but the paper
// does not evaluate: every machine is both a server (hosting one shard
// of the key space) and a client. GETs for remote shards are one-sided
// READs into the owner's memory; GETs for the local shard are plain
// memory accesses; PUTs go through the owner's circular-buffer WRITE
// path. The aggregate READ capacity grows with the cluster, which is
// the symmetric design's appeal — at the cost of every machine also
// running the server-side PUT poller.
type Symmetric struct {
	cl     *cluster.Cluster
	shards []*Server
	// conns[i][j] is machine i's client to shard j (nil when i == j).
	conns [][]*Client
	seed  uint64
}

// NewSymmetric builds an n-machine symmetric FaRM deployment on cl's
// first n machines, each hosting one shard configured by cfg.
func NewSymmetric(cl *cluster.Cluster, n int, cfg Config) (*Symmetric, error) {
	if n < 2 || cl.Size() < n {
		return nil, fmt.Errorf("farm: symmetric deployment needs >=2 machines (have %d of %d)", cl.Size(), n)
	}
	s := &Symmetric{cl: cl, seed: 0x517a}
	s.shards = make([]*Server, n)
	for i := 0; i < n; i++ {
		srv, err := NewServer(cl.Machine(i), cfg)
		if err != nil {
			return nil, err
		}
		s.shards[i] = srv
	}
	s.conns = make([][]*Client, n)
	for i := 0; i < n; i++ {
		s.conns[i] = make([]*Client, n)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			c, err := s.shards[j].ConnectClient(cl.Machine(i))
			if err != nil {
				return nil, err
			}
			s.conns[i][j] = c
		}
	}
	return s, nil
}

// Owner returns the machine owning key's shard.
func (s *Symmetric) Owner(key kv.Key) int {
	return int(key.Hash64(s.seed) % uint64(len(s.shards)))
}

// Preload inserts key on its owner without network traffic.
func (s *Symmetric) Preload(key kv.Key, value []byte) error {
	return s.shards[s.Owner(key)].Insert(key, value)
}

// localAccess models a same-machine GET: no verbs, just the hash and
// table lookups on the local core (FaRM reads its own shared address
// space directly).
func (s *Symmetric) localAccess(from int, fn func()) {
	m := s.cl.Machine(from)
	p := m.CPU.Params()
	service := p.PollCheck + 2*m.CPU.DRAMAccess()
	m.CPU.Core(m.CPU.Cores()-1).Submit(service, func(sim.Time) { fn() })
}

// Get routes a GET issued by machine `from` to the key's owner: a local
// memory lookup, or the remote neighborhood READ(s).
func (s *Symmetric) Get(from int, key kv.Key, cb func(Result)) error {
	owner := s.Owner(key)
	if owner == from {
		start := s.cl.Eng.Now()
		s.localAccess(from, func() {
			v, ok := s.shards[owner].table.Lookup(key)
			res := Result{Key: key, IsGet: true, Status: readclient.StatusOf(ok), Latency: s.cl.Eng.Now() - start}
			if ok {
				res.Value = append([]byte(nil), v...)
			}
			if cb != nil {
				cb(res)
			}
		})
		return nil
	}
	return s.conns[from][owner].Get(key, cb)
}

// Put routes a PUT issued by machine `from` to the key's owner.
func (s *Symmetric) Put(from int, key kv.Key, value []byte, cb func(Result)) error {
	owner := s.Owner(key)
	if owner == from {
		start := s.cl.Eng.Now()
		val := append([]byte(nil), value...)
		s.localAccess(from, func() {
			err := s.shards[owner].table.Insert(key, val)
			if cb != nil {
				cb(Result{Key: key, Status: readclient.StatusOf(err == nil), Latency: s.cl.Eng.Now() - start})
			}
		})
		return nil
	}
	return s.conns[from][owner].Put(key, value, cb)
}
