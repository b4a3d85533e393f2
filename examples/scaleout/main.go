// Scaleout: when one HERD server's ~26 Mops is not enough, spread keys
// across a fleet of servers. A FleetDeployment places keys by
// rendezvous hashing; this example runs it in two shapes on the same
// closed-loop workload:
//
//   - R=1: static sharding, no replication — the classic memcached
//     fleet.
//   - R=2: every key on two shards. The demo crashes one shard mid-run
//     (reads fail over to replicas with zero failed operations) and
//     then grows the fleet by one shard with live background key
//     migration.
//
// Both are driven through the same herdkv.KV client interface.
package main

import (
	"fmt"
	"log"

	"herdkv"
)

const (
	clientsPerShard = 8
	keys            = 16384
	valueSize       = 32
	measure         = 300 * herdkv.Microsecond
)

func main() {
	fmt.Printf("%-10s %-8s %12s %14s\n", "mode", "shards", "Mops", "Mops/shard")
	for _, shards := range []int{1, 2, 4} {
		mops := runFleet(shards, 1)
		fmt.Printf("%-10s %-8d %12.1f %14.1f\n", "sharded", shards, mops, mops/float64(shards))
	}
	for _, shards := range []int{2, 4} {
		mops := runFleet(shards, 2)
		fmt.Printf("%-10s %-8d %12.1f %14.1f\n", "fleet R=2", shards, mops, mops/float64(shards))
	}
	fmt.Println("\nFleet replication costs write fan-out but keeps every key readable")
	fmt.Println("through a shard crash. Failover and migration in action:")
	failoverDemo()
}

// drive runs a closed-loop read-intensive workload over clients and
// returns steady-state Mops. It only sees the KV interface.
func drive(cl *herdkv.Cluster, clients []herdkv.KV, window int) float64 {
	var completed uint64
	stop := false
	for i, c := range clients {
		c := c
		gen := herdkv.NewWorkload(herdkv.ReadIntensive(keys, valueSize, int64(i+1)))
		var loop func()
		loop = func() {
			op := gen.Next()
			done := func(herdkv.Result) {
				completed++
				if !stop {
					loop()
				}
			}
			if op.IsGet {
				c.Get(op.Key, done)
			} else {
				c.Put(op.Key, herdkv.ExpectedValue(op.Key, valueSize), done)
			}
		}
		for w := 0; w < window; w++ {
			loop()
		}
	}
	cl.Eng.RunFor(100 * herdkv.Microsecond) // warm up
	start := completed
	cl.Eng.RunFor(measure)
	stop = true
	return float64(completed-start) / measure.Seconds() / 1e6
}

func herdConfig(nClients int) herdkv.Config {
	cfg := herdkv.DefaultConfig()
	cfg.MaxClients = nClients
	cfg.Mica = herdkv.MicaConfig{IndexBuckets: keys / 2, BucketSlots: 8, LogBytes: keys * 64}
	return cfg
}

// runFleet measures a fleet of shards servers at replication r.
func runFleet(shards, r int) float64 {
	nClients := shards * clientsPerShard
	cl := herdkv.NewCluster(herdkv.Apt(), shards+nClients, 1)
	servers := make([]*herdkv.Machine, shards)
	for i := range servers {
		servers[i] = cl.Machine(i)
	}
	fcfg := herdkv.DefaultFleetConfig()
	fcfg.Herd = herdConfig(nClients)
	fcfg.Replication = r
	d, err := herdkv.NewFleet(servers, fcfg)
	if err != nil {
		log.Fatal(err)
	}
	preload(d.Preload)
	clients := make([]herdkv.KV, nClients)
	for i := range clients {
		if clients[i], err = d.ConnectClient(cl.Machine(shards + i)); err != nil {
			log.Fatal(err)
		}
	}
	return drive(cl, clients, 4)
}

// failoverDemo crashes one shard of a 4-shard R=2 fleet under load,
// shows reads surviving via replica failover, then restarts it and
// grows the fleet by a fifth shard with background migration.
func failoverDemo() {
	const shards = 4
	cl := herdkv.NewCluster(herdkv.Apt(), shards+2, 1)
	servers := make([]*herdkv.Machine, shards)
	for i := range servers {
		servers[i] = cl.Machine(i)
	}
	fcfg := herdkv.DefaultFleetConfig()
	fcfg.Herd = herdConfig(1)
	// Durability makes the crashed shard's restart warm: its MICA
	// partitions are DRAM and die with the crash, but the write-ahead
	// log replays them back before the shard rejoins the ring.
	fcfg.Herd.Durability = herdkv.DurabilityGroupCommit
	d, err := herdkv.NewFleet(servers, fcfg)
	if err != nil {
		log.Fatal(err)
	}
	preload(d.Preload)
	c, err := d.ConnectClient(cl.Machine(shards))
	if err != nil {
		log.Fatal(err)
	}

	// Read every key while shard 0 is down: replicas serve its share.
	d.Server(0).Crash()
	hits := 0
	for k := uint64(0); k < 2048; k++ {
		c.Get(herdkv.KeyFromUint64(k), func(r herdkv.Result) {
			if r.Status == herdkv.StatusHit {
				hits++
			}
		})
	}
	cl.Eng.Run()
	fmt.Printf("  shard 0 down: %d/2048 reads served (reroutes=%d, replica reads=%d, failed=%d)\n",
		hits, c.Reroutes(), c.ReplicaReads(), c.Failed())
	d.Server(0).Restart()

	// Grow the fleet: add a fifth shard and wait out the migration.
	migrated := false
	id, err := d.AddShard(cl.Machine(shards+1), func() { migrated = true })
	if err != nil {
		log.Fatal(err)
	}
	cl.Eng.Run()
	fmt.Printf("  added shard %d: migration complete=%v, ring=%v\n", id, migrated, d.Ring().Shards())
	hits = 0
	for k := uint64(0); k < 2048; k++ {
		c.Get(herdkv.KeyFromUint64(k), func(r herdkv.Result) {
			if r.Status == herdkv.StatusHit {
				hits++
			}
		})
	}
	cl.Eng.Run()
	fmt.Printf("  post-migration: %d/2048 reads served, failed=%d\n", hits, c.Failed())
}

// preload inserts every key via the provided deployment preload.
func preload(insert func(herdkv.Key, []byte) error) {
	for k := uint64(0); k < keys; k++ {
		key := herdkv.KeyFromUint64(k)
		if err := insert(key, herdkv.ExpectedValue(key, valueSize)); err != nil {
			log.Fatal(err)
		}
	}
}
