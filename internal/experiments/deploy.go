package experiments

import (
	"herdkv/internal/cluster"
	"herdkv/internal/core"
	"herdkv/internal/fleet"
	"herdkv/internal/kv"
)

// deploySpec sizes one experiment's deployment: a fresh cluster on
// spec seeded with seed, the keyspace 0..keys-1 preloaded with
// valueSize-byte expected values, and clients client processes placed
// perMachine to a machine on the machines after the servers. A
// spec.Faults schedule is armed after the preload, before any client
// connects.
type deploySpec struct {
	spec       cluster.Spec
	seed       int64
	keys       uint64
	valueSize  int
	clients    int
	perMachine int
}

// cluster builds the cluster: the server machines, then the client
// machines.
func (dp deploySpec) cluster(servers int) *cluster.Cluster {
	return cluster.New(dp.spec, servers+(dp.clients+dp.perMachine-1)/dp.perMachine, dp.seed)
}

// deployHERD builds one HERD server on machine 0, sized for dp.clients,
// preloads it, arms the fault schedule with the server as node 0's
// crash target, and connects the clients.
func deployHERD(dp deploySpec, cfg core.Config) (*cluster.Cluster, *core.Server, []*core.Client) {
	cl := dp.cluster(1)
	cfg.MaxClients = dp.clients
	srv, err := core.NewServer(cl.Machine(0), cfg)
	if err != nil {
		panic(err)
	}
	preloadKeys(dp.keys, dp.valueSize, srv.Preload)
	if inj := cl.Faults(); inj != nil {
		inj.SetCrashTarget(0, srv)
		inj.Arm()
	}
	return cl, srv, connectAll(cl, 1, dp.clients, dp.perMachine, srv.ConnectClient)
}

// deployFleet builds a fleet with one shard on each of machines
// 0..shards-1, each member sized for dp.clients, preloads it, arms the
// fault schedule with every shard as its node's crash target, and
// connects the clients. A versioned fleet's preload is stamped at
// version zero: Deployment.Preload stores its bytes verbatim, and an
// unstamped value would be parsed as a stamp.
func deployFleet(dp deploySpec, shards int, cfg fleet.Config) (*cluster.Cluster, *fleet.Deployment, []*fleet.Client) {
	cl := dp.cluster(shards)
	cfg.Herd.MaxClients = dp.clients
	servers := make([]*cluster.Machine, shards)
	for i := range servers {
		servers[i] = cl.Machine(i)
	}
	d, err := fleet.NewDeployment(servers, cfg)
	if err != nil {
		panic(err)
	}
	put := d.Preload
	if cfg.Versioned || cfg.ReadRepair {
		var stored []byte
		put = func(key kv.Key, value []byte) error {
			stored = append(kv.AppendVersion(stored[:0], kv.Version{}, false), value...)
			return d.Preload(key, stored)
		}
	}
	preloadKeys(dp.keys, dp.valueSize, put)
	if inj := cl.Faults(); inj != nil {
		d.RegisterCrashTargets(inj)
		inj.Arm()
	}
	return cl, d, connectAll(cl, shards, dp.clients, dp.perMachine, d.ConnectClient)
}

// connectAll connects n clients through connect, perMachine to a
// machine from machine first on, and panics on a refused connection.
func connectAll[C any](cl *cluster.Cluster, first, n, perMachine int,
	connect func(*cluster.Machine) (C, error)) []C {
	clients := make([]C, n)
	for i := range clients {
		c, err := connect(cl.Machine(first + i/perMachine))
		if err != nil {
			panic(err)
		}
		clients[i] = c
	}
	return clients
}

// asKV returns clients as kv.KV stores.
func asKV[C kv.KV](clients []C) []kv.KV {
	out := make([]kv.KV, len(clients))
	for i, c := range clients {
		out[i] = c
	}
	return out
}
