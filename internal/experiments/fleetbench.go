package experiments

import (
	"fmt"

	"herdkv/internal/cluster"
	"herdkv/internal/core"
	"herdkv/internal/fleet"
	"herdkv/internal/kv"
	"herdkv/internal/mica"
	"herdkv/internal/stats"
	"herdkv/internal/workload"
)

// fleetBenchShards is the deployment size compared against one server.
const fleetBenchShards = 4

// FleetBench compares the deployment shapes on the same
// read-intensive closed-loop workload: one HERD server, a 4-shard fleet
// at R=1 (static sharding), and a 4-shard R=2 fleet. Every fleet places
// keys by rendezvous hashing and stamps its writes; R=2 pays replicated
// writes, each waiting for both replicas' acks, and reads one replica
// in the steady state. The benchmark quantifies what is left of the 4x
// machine count. The report is BENCH_fleet.json.
func FleetBench(spec cluster.Spec) (*Table, *Report) {
	const (
		clientsPerShard = 4
		keys            = 16384
		valueSize       = 32
	)

	herdCfg := func() core.Config {
		cfg := core.DefaultConfig()
		cfg.Mica = mica.Config{IndexBuckets: keys / 2, BucketSlots: 8, LogBytes: keys * 64}
		return cfg
	}
	// deploy sizes an arm for nClients client machines.
	deploy := func(nClients int) deploySpec {
		return deploySpec{spec: spec, seed: 1, keys: keys, valueSize: valueSize, clients: nClients, perMachine: 1}
	}

	rep := newReport("fleet", spec)
	rep.Params["shards"] = fmt.Sprint(fleetBenchShards)
	rep.Params["replication"] = "2"

	// drive measures arm's steady-state Mops over clients (any KV system).
	drive := func(arm string, cl *cluster.Cluster, clients []kv.KV) float64 {
		d := newDriver(cl.Eng, nil)
		for i, c := range clients {
			gen := workload.NewGenerator(workload.ReadIntensive(keys, valueSize, int64(i+1)))
			d.add(c, gen, 4, staggered(i, len(clients)))
		}
		d.warm(Warmup)
		mops := stats.Throughput(d.measure(Span), Span)
		rep.Arm(arm).Set("goodput_mops", mops, "Mops", Higher)
		return mops
	}

	// The single server gets enough load to sit at its ceiling; the
	// 4-shard deployments get 4x that, so each measures aggregate
	// capacity rather than offered load.
	single := func() float64 {
		cl, _, clients := deployHERD(deploy(clientsPerShard*fleetBenchShards), herdCfg())
		return drive("single", cl, asKV(clients))
	}

	// fleetArm runs a 4-shard fleet at replication r: at r=1 it is
	// static sharding, every key on one shard.
	fleetArm := func(arm string, r int) float64 {
		fcfg := fleet.DefaultConfig()
		fcfg.Herd = herdCfg()
		fcfg.Replication = r
		cl, _, clients := deployFleet(deploy(clientsPerShard*fleetBenchShards*fleetBenchShards), fleetBenchShards, fcfg)
		return drive(arm, cl, asKV(clients))
	}

	singleMops := single()
	shardedMops, fleetMops := fleetArm("sharded", 1), fleetArm("fleet", 2)
	speedup := ratio(fleetMops, singleMops)
	rep.Arm("fleet").Set("speedup_vs_single", speedup, "x", "")

	t := &Table{
		ID:      "fleet-bench",
		Title:   fmt.Sprintf("Scale-out comparison, read-intensive 48 B items — %s", spec.Name),
		Columns: []string{"deployment", "machines", "Mops", "vs single"},
	}
	t.AddRow("single HERD server", "1", cell(singleMops), "1.0x")
	t.AddRow("sharded (fleet R=1)", fmt.Sprintf("%d", fleetBenchShards),
		cell(shardedMops), fmt.Sprintf("%.1fx", shardedMops/singleMops))
	t.AddRow("fleet (R=2)", fmt.Sprintf("%d", fleetBenchShards),
		cell(fleetMops), fmt.Sprintf("%.1fx", speedup))
	t.AddNote("%d clients on the single server, %d on the %d-shard deployments (window 4); R=2 pays replicated writes",
		clientsPerShard*fleetBenchShards, clientsPerShard*fleetBenchShards*fleetBenchShards, fleetBenchShards)
	return t, rep
}
