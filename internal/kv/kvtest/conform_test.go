package kvtest

import (
	"testing"

	"herdkv/internal/cluster"
	"herdkv/internal/core"
	"herdkv/internal/farm"
	"herdkv/internal/fault"
	"herdkv/internal/fleet"
	"herdkv/internal/mica"
	"herdkv/internal/nearcache"
	"herdkv/internal/pilaf"
	"herdkv/internal/sim"
)

func herdConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.NS = 4
	cfg.MaxClients = 8
	cfg.Window = 4
	cfg.Mica = mica.Config{IndexBuckets: 1 << 10, BucketSlots: 8, LogBytes: 1 << 20}
	return cfg
}

func TestHERDConformance(t *testing.T) {
	Run(t, func(t *testing.T) Harness {
		cl := cluster.New(cluster.Apt(), 2, 1)
		srv, err := core.NewServer(cl.Machine(0), herdConfig())
		if err != nil {
			t.Fatal(err)
		}
		c, err := srv.ConnectClient(cl.Machine(1))
		if err != nil {
			t.Fatal(err)
		}
		return Harness{KV: c, Run: cl.Eng.Run}
	})
}

// TestShardedConformance runs the suite against static sharding: a
// fleet at Replication 1, where every key lives on exactly one shard,
// so reads have no replica to fail over to and writes no fan-out.
func TestShardedConformance(t *testing.T) {
	Run(t, func(t *testing.T) Harness {
		cl := cluster.New(cluster.Apt(), 3, 1)
		cfg := fleet.DefaultConfig()
		cfg.Herd = herdConfig()
		cfg.Replication = 1
		d, err := fleet.NewDeployment(
			[]*cluster.Machine{cl.Machine(0), cl.Machine(1)}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := d.ConnectClient(cl.Machine(2))
		if err != nil {
			t.Fatal(err)
		}
		return Harness{KV: c, Run: cl.Eng.Run}
	})
}

func TestFleetConformance(t *testing.T) {
	Run(t, func(t *testing.T) Harness {
		cl := cluster.New(cluster.Apt(), 3, 1)
		cfg := fleet.DefaultConfig()
		cfg.Herd = herdConfig()
		cfg.Herd.RetryTimeout = 12 * sim.Microsecond
		d, err := fleet.NewDeployment(
			[]*cluster.Machine{cl.Machine(0), cl.Machine(1)}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := d.ConnectClient(cl.Machine(2))
		if err != nil {
			t.Fatal(err)
		}
		return Harness{KV: c, Run: cl.Eng.Run}
	})
}

// TestNearCacheHERDConformance runs the full suite against the
// near-cache wrapper over a single HERD server: caching must be
// invisible to the kv.KV contract (callback discipline, counters,
// buffer ownership) even when reads are served locally.
func TestNearCacheHERDConformance(t *testing.T) {
	Run(t, func(t *testing.T) Harness {
		cl := cluster.New(cluster.Apt(), 2, 1)
		srv, err := core.NewServer(cl.Machine(0), herdConfig())
		if err != nil {
			t.Fatal(err)
		}
		c, err := srv.ConnectClient(cl.Machine(1))
		if err != nil {
			t.Fatal(err)
		}
		nc := nearcache.New(c, cl.Eng, nil, nearcache.DefaultConfig())
		return Harness{KV: nc, Run: cl.Eng.Run}
	})
}

// TestNearCacheFleetConformance layers the near cache over the
// replicated fleet.
func TestNearCacheFleetConformance(t *testing.T) {
	Run(t, func(t *testing.T) Harness {
		cl := cluster.New(cluster.Apt(), 3, 1)
		cfg := fleet.DefaultConfig()
		cfg.Herd = herdConfig()
		cfg.Herd.RetryTimeout = 12 * sim.Microsecond
		d, err := fleet.NewDeployment(
			[]*cluster.Machine{cl.Machine(0), cl.Machine(1)}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := d.ConnectClient(cl.Machine(2))
		if err != nil {
			t.Fatal(err)
		}
		nc := nearcache.New(c, cl.Eng, nil, nearcache.DefaultConfig())
		return Harness{KV: nc, Run: cl.Eng.Run}
	})
}

// TestFleetNemesisConformance runs the full suite against the
// versioned, read-repairing fleet client while a generated nemesis
// schedule crashes a shard and severs links mid-run. Individual ops may
// fail under fire (AllowFailures), but no kv.KV invariant — callback
// discipline, counter bookkeeping, result shape — may break.
func TestFleetNemesisConformance(t *testing.T) {
	sched, err := fault.ParseSchedule(
		"nemesis seed=29 until=400us nodes=2 peers=3 crashes=1 blackouts=2 partitions=1 mindown=50us maxdown=100us")
	if err != nil {
		t.Fatal(err)
	}
	Run(t, func(t *testing.T) Harness {
		spec := cluster.Apt()
		spec.Faults = sched
		cl := cluster.New(spec, 3, 1)
		cfg := fleet.DefaultConfig()
		cfg.Herd = herdConfig()
		cfg.Herd.RetryTimeout = 12 * sim.Microsecond
		d, err := fleet.NewDeployment(
			[]*cluster.Machine{cl.Machine(0), cl.Machine(1)}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := d.ConnectClient(cl.Machine(2))
		if err != nil {
			t.Fatal(err)
		}
		d.RegisterCrashTargets(cl.Faults())
		cl.Faults().Arm()
		return Harness{KV: c, Run: cl.Eng.Run, AllowFailures: true}
	})
}

// The baselines report Inflight through their shared client core, so
// counterInvariants' drain check runs on them too.
var (
	_ interface{ Inflight() int } = (*pilaf.Client)(nil)
	_ interface{ Inflight() int } = (*farm.Client)(nil)
)

func TestPilafConformance(t *testing.T) {
	Run(t, func(t *testing.T) Harness {
		cl := cluster.New(cluster.Apt(), 2, 1)
		srv, err := pilaf.NewServer(cl.Machine(0),
			pilaf.Config{Buckets: 1 << 12, ExtentBytes: 1 << 22, Cores: 4, Window: 4})
		if err != nil {
			t.Fatal(err)
		}
		c, err := srv.ConnectClient(cl.Machine(1))
		if err != nil {
			t.Fatal(err)
		}
		return Harness{KV: c, Run: cl.Eng.Run}
	})
}

func TestFaRMConformance(t *testing.T) {
	Run(t, func(t *testing.T) Harness {
		cl := cluster.New(cluster.Apt(), 2, 1)
		srv, err := farm.NewServer(cl.Machine(0), farm.Config{
			Mode: farm.InlineMode, Buckets: 1 << 12, ValueSize: 32,
			ExtentBytes: 1 << 22, Cores: 4, Window: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		c, err := srv.ConnectClient(cl.Machine(1))
		if err != nil {
			t.Fatal(err)
		}
		return Harness{KV: c, Run: cl.Eng.Run, ValueSize: 32}
	})
}
