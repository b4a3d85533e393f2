// Baselines: a head-to-head of the three designs the paper compares —
// HERD (WRITE+SEND, one round trip), Pilaf-em-OPT (cuckoo READs, ~2.6
// round trips per GET) and FaRM-em (one big hopscotch-neighborhood READ)
// — on the same read-intensive workload, printing per-system throughput
// and latency from the same simulated cluster.
//
// All three systems are driven through the shared herdkv.KV client
// interface: the measurement loop below contains no per-system code.
package main

import (
	"fmt"
	"log"

	"herdkv"
)

const (
	nClients  = 12
	keys      = 8192
	valueSize = 32
	opsPerCli = 400
)

type stats struct {
	ops  int
	lat  herdkv.Time
	hits int
}

func main() {
	fmt.Printf("%-14s %10s %12s %9s\n", "system", "Mops", "mean_us", "hit%")

	for _, system := range []string{"HERD", "Pilaf-em-OPT", "FaRM-em"} {
		mops, mean, hit := run(system)
		fmt.Printf("%-14s %10.2f %12.2f %8.1f%%\n", system, mops, mean, hit)
	}
	fmt.Println("\nHERD's single round trip wins on both axes; FaRM-em's one-READ GETs")
	fmt.Println("beat Pilaf-em's multi-READ cuckoo walk, as in the paper's Figure 11.")
}

// build constructs the named system and returns one KV client per
// client machine. This is the only per-system code in the example.
func build(cl *herdkv.Cluster, system string) []herdkv.KV {
	clients := make([]herdkv.KV, nClients)
	switch system {
	case "HERD":
		cfg := herdkv.DefaultConfig()
		cfg.NS = 6
		cfg.MaxClients = nClients
		srv, err := herdkv.NewServer(cl.Machine(0), cfg)
		if err != nil {
			log.Fatal(err)
		}
		preload(srv.Preload)
		for i := range clients {
			c, err := srv.ConnectClient(cl.Machine(1 + i))
			if err != nil {
				log.Fatal(err)
			}
			clients[i] = c
		}

	case "Pilaf-em-OPT":
		cfg := herdkv.DefaultPilafConfig()
		cfg.Buckets = keys * 2
		srv, err := herdkv.NewPilafServer(cl.Machine(0), cfg)
		if err != nil {
			log.Fatal(err)
		}
		preload(srv.Insert)
		for i := range clients {
			c, err := srv.ConnectClient(cl.Machine(1 + i))
			if err != nil {
				log.Fatal(err)
			}
			clients[i] = c
		}

	case "FaRM-em":
		cfg := herdkv.DefaultFarmConfig()
		cfg.Buckets = keys * 4
		cfg.ValueSize = valueSize
		srv, err := herdkv.NewFarmServer(cl.Machine(0), cfg)
		if err != nil {
			log.Fatal(err)
		}
		preload(srv.Insert)
		for i := range clients {
			c, err := srv.ConnectClient(cl.Machine(1 + i))
			if err != nil {
				log.Fatal(err)
			}
			clients[i] = c
		}
	}
	return clients
}

func run(system string) (mops, meanUS, hitPct float64) {
	cl := herdkv.NewCluster(herdkv.Apt(), 1+nClients, 11)
	gen := herdkv.NewWorkload(herdkv.ReadIntensive(keys, valueSize, 5))
	clients := build(cl, system)

	var s stats
	var drive func(i, n int)
	drive = func(i, n int) {
		if n >= opsPerCli {
			return
		}
		op := gen.Next()
		done := func(r herdkv.Result) {
			s.ops++
			s.lat += r.Latency
			if r.Status == herdkv.StatusHit {
				s.hits++
			}
			drive(i, n+1)
		}
		var err error
		if op.IsGet {
			err = clients[i].Get(op.Key, done)
		} else {
			err = clients[i].Put(op.Key, herdkv.ExpectedValue(op.Key, valueSize), done)
		}
		if err != nil {
			log.Fatal(err)
		}
	}
	startT := cl.Eng.Now()
	for i := 0; i < nClients; i++ {
		for w := 0; w < 4; w++ {
			drive(i, 0)
		}
	}
	cl.Eng.Run()
	elapsed := cl.Eng.Now() - startT
	// Every client of the three reports its in-flight ops: none may be
	// left once the engine drains, or the mean would miss them.
	for i, c := range clients {
		if n := c.(interface{ Inflight() int }).Inflight(); n != 0 {
			log.Fatalf("%s client %d: %d ops still in flight after the run", system, i, n)
		}
	}

	return float64(s.ops) / elapsed.Seconds() / 1e6,
		(s.lat / herdkv.Time(s.ops)).Microseconds(),
		100 * float64(s.hits) / float64(s.ops)
}

// preload inserts every key via the provided server-side insert.
func preload(insert func(herdkv.Key, []byte) error) {
	for k := uint64(0); k < keys; k++ {
		key := herdkv.KeyFromUint64(k)
		if err := insert(key, herdkv.ExpectedValue(key, valueSize)); err != nil {
			log.Fatal(err)
		}
	}
}
