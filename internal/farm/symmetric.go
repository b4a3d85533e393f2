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
	cl       *cluster.Cluster
	shards   []*Server
	machines []*machineClient
	seed     uint64
}

// machineClient is one machine's view of the deployment: its own
// shard's items are local memory accesses, every other shard's go
// through the machine's FaRM client to that shard.
type machineClient struct {
	s     *Symmetric
	id    int
	conns []*Client // conns[j] reaches shard j; nil for the machine's own
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
	s.machines = make([]*machineClient, n)
	for i := 0; i < n; i++ {
		m := &machineClient{s: s, id: i, conns: make([]*Client, n)}
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			c, err := s.shards[j].ConnectClient(cl.Machine(i))
			if err != nil {
				return nil, err
			}
			m.conns[j] = c
		}
		s.machines[i] = m
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

// Client returns machine m's view of the deployment as a kv.KV: each
// op goes to the key's owner, locally or over the network.
func (s *Symmetric) Client(m int) kv.KV { return s.machines[m] }

// localAccess models a same-machine op: no verbs, just the hash and
// table lookups on the local core (FaRM reads its own shared address
// space directly).
func (m *machineClient) localAccess(fn func()) {
	host := m.s.cl.Machine(m.id).CPU
	service := host.Params().PollCheck + 2*host.DRAMAccess()
	host.Core(host.Cores()-1).Submit(service, func(sim.Time) { fn() })
}

// Get routes a GET to the key's owner: a local memory lookup, or the
// remote neighborhood READ(s).
func (m *machineClient) Get(key kv.Key, cb func(Result)) error {
	if key.IsZero() {
		return kv.ErrZeroKey
	}
	owner := m.s.Owner(key)
	if owner != m.id {
		return m.conns[owner].Get(key, cb)
	}
	start := m.s.cl.Eng.Now()
	m.localAccess(func() {
		v, ok := m.s.shards[owner].table.Lookup(key)
		res := Result{Key: key, IsGet: true, Status: readclient.StatusOf(ok), Latency: m.s.cl.Eng.Now() - start}
		if ok {
			res.Value = append([]byte(nil), v...)
		}
		if cb != nil {
			cb(res)
		}
	})
	return nil
}

// Put routes a PUT to the key's owner, refusing what the owner's FaRM
// client would refuse.
func (m *machineClient) Put(key kv.Key, value []byte, cb func(Result)) error {
	owner := m.s.Owner(key)
	if owner != m.id {
		return m.conns[owner].Put(key, value, cb)
	}
	if err := m.s.shards[owner].checkPut(key, value); err != nil {
		return err
	}
	start := m.s.cl.Eng.Now()
	val := append([]byte(nil), value...)
	m.localAccess(func() {
		err := m.s.shards[owner].table.Insert(key, val)
		if cb != nil {
			cb(Result{Key: key, Status: readclient.StatusOf(err == nil), Latency: m.s.cl.Eng.Now() - start})
		}
	})
	return nil
}
