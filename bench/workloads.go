package main

import (
	"fmt"
	"time"

	"herdkv/internal/cluster"
	"herdkv/internal/core"
	"herdkv/internal/fleet"
	"herdkv/internal/kv"
	"herdkv/internal/mica"
	"herdkv/internal/mux"
	"herdkv/internal/nearcache"
	"herdkv/internal/sim"
	"herdkv/internal/telemetry"
	"herdkv/internal/wal"
	"herdkv/internal/workload"
)

// valueSize is every workload's value length; every PUT writes
// workload.ExpectedValue(key, valueSize), so any GET hit can be checked.
const valueSize = 32

// workloadSpec is one traffic mix the benchmark runs.
type workloadSpec struct {
	name string
	// perSecond is the measured window's virtual length per second of
	// -seconds. It is a constant, not a wall-clock loop, so modeled
	// metrics repeat exactly at a fixed seed on any host; the constants
	// make one run take about -seconds of wall time on a 2-core x86 host.
	perSecond sim.Time
	warmup    sim.Time
	build     func(p *phases) (*rig, error)
}

// workloads are the benchmark's traffic mixes, in run order. Each
// stresses a different set of layers; BENCHMARK.json and README.md
// record why.
var workloads = []*workloadSpec{
	{
		name:      "herd-read",
		perSecond: 4 * sim.Millisecond,
		warmup:    200 * sim.Microsecond,
		build:     buildHerdRead,
	},
	{
		name:      "fleet-write",
		perSecond: 800 * sim.Microsecond,
		warmup:    400 * sim.Microsecond,
		build:     buildFleetWrite,
	},
	{
		name:      "hot-cached",
		perSecond: 1600 * sim.Microsecond,
		warmup:    200 * sim.Microsecond,
		build:     buildHotCached,
	},
	{
		name:      "mux-open",
		perSecond: 1250 * sim.Microsecond,
		warmup:    200 * sim.Microsecond,
		build:     buildMuxOpen,
	},
}

func findWorkload(name string) (*workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (herd-read, fleet-write, hot-cached, mux-open, all)", name)
}

// clusterSeed seeds every deployment: ring placement and per-machine
// seeds are part of a workload's definition, so -seed varies only the op
// streams. (A seed-dependent ring moves fleet goodput by about 3%.)
const clusterSeed = 1

// phases is the wall time of each set-up step, in seconds.
type phases struct{ cluster, preload, connect, warmup float64 }

func (p phases) total() float64 { return p.cluster + p.preload + p.connect + p.warmup }

// lap returns the seconds since *t and resets *t to now.
func lap(t *time.Time) float64 {
	now := time.Now()
	d := now.Sub(*t).Seconds()
	*t = now
	return d
}

// rig is one built deployment: what the load generator submits to, and the
// handles the benchmark reads counters from.
type rig struct {
	cl *cluster.Cluster
	// servers and serverMachines are the HERD servers and their hosts;
	// per-layer utilizations are attributed to these machines.
	servers        []*core.Server
	serverMachines []*cluster.Machine
	// fleet and fleetClients are nil outside the fleet workloads;
	// fleetCalls times every call the benchmark makes into a fleet client.
	fleet        *fleet.Deployment
	fleetClients []*fleet.Client
	fleetCalls   []*timedKV
	// cacheTel is the sink handed to nearcache.New (hot-cached only).
	cacheTel *telemetry.Sink

	// clients is what the load generator submits to: one closed loop of depth
	// window per client, or, with rate > 0, an open loop of Poisson
	// arrivals at rate ops per virtual second spread round-robin.
	clients []kv.KV
	window  int
	rate    float64
	ops     workload.Config // op mix; Seed is set per stream
}

// preload writes every key's expected value through insert.
func preload(insert func(kv.Key, []byte) error, keys uint64) error {
	for k := uint64(0); k < keys; k++ {
		key := kv.FromUint64(k)
		if err := insert(key, workload.ExpectedValue(key, valueSize)); err != nil {
			return fmt.Errorf("preload key %d: %w", k, err)
		}
	}
	return nil
}

func buildHerdRead(p *phases) (*rig, error) {
	const clients, keys = 51, 1 << 20
	t := time.Now()
	cl := cluster.New(cluster.Apt(), 1+clients/3, clusterSeed)
	cfg := core.DefaultConfig()
	cfg.MaxClients = clients
	// Sized so every key stays resident: a 1/16-full index and a log
	// with twice the preloaded bytes, as herdload sizes Fig 9.
	cfg.Mica = mica.Config{IndexBuckets: 1 << 17, BucketSlots: 8, LogBytes: keys * (18 + valueSize) * 2 / cfg.NS}
	srv, err := core.NewServer(cl.Machine(0), cfg)
	if err != nil {
		return nil, err
	}
	p.cluster = lap(&t)
	if err := preload(srv.Preload, keys); err != nil {
		return nil, err
	}
	p.preload = lap(&t)
	r := &rig{
		cl: cl, servers: []*core.Server{srv}, serverMachines: []*cluster.Machine{cl.Machine(0)},
		window: cfg.Window, ops: workload.ReadIntensive(keys, valueSize, 0),
	}
	for i := 0; i < clients; i++ {
		c, err := srv.ConnectClient(cl.Machine(1 + i/3))
		if err != nil {
			return nil, err
		}
		r.clients = append(r.clients, c)
	}
	p.connect = lap(&t)
	return r, nil
}

// buildFleet builds a versioned, read-repairing fleet of shards servers
// with one fleet client on each of clients further machines. The
// consistency mode is pinned here rather than taken from the fleet
// defaults, so a change of default cannot move the benchmark.
func buildFleet(p *phases, shards, clients int, keys uint64, fcfg fleet.Config) (*rig, error) {
	t := time.Now()
	cl := cluster.New(cluster.Apt(), shards+clients, clusterSeed)
	fcfg.Replication = 2
	fcfg.Versioned = true
	fcfg.ReadRepair = true
	fcfg.Herd.MaxClients = clients
	r := &rig{cl: cl, window: fcfg.Herd.Window}
	for i := 0; i < shards; i++ {
		r.serverMachines = append(r.serverMachines, cl.Machine(i))
	}
	d, err := fleet.NewDeployment(r.serverMachines, fcfg)
	if err != nil {
		return nil, err
	}
	r.fleet = d
	for i := 0; i < shards; i++ {
		r.servers = append(r.servers, d.Server(i))
	}
	p.cluster = lap(&t)
	// A versioned fleet stores values behind a version stamp, and
	// Deployment.Preload stores its bytes verbatim: an unstamped value
	// would be parsed as a stamp (see README.md, findings).
	stamped := func(key kv.Key, value []byte) error {
		return d.Preload(key, append(kv.AppendVersion(nil, kv.Version{}, false), value...))
	}
	if err := preload(stamped, keys); err != nil {
		return nil, err
	}
	p.preload = lap(&t)
	for i := 0; i < clients; i++ {
		fc, err := d.ConnectClient(cl.Machine(shards + i))
		if err != nil {
			return nil, err
		}
		r.fleetClients = append(r.fleetClients, fc)
		tk := &timedKV{KV: fc, eng: cl.Eng}
		r.fleetCalls = append(r.fleetCalls, tk)
		r.clients = append(r.clients, tk)
	}
	p.connect = lap(&t)
	return r, nil
}

func buildFleetWrite(p *phases) (*rig, error) {
	const keys = 1 << 18
	fcfg := fleet.DefaultConfig()
	fcfg.Herd.Durability = core.DurabilityGroupCommit
	// The wal package defaults, pinned for the same reason as the
	// consistency mode; wal.device_bytes_per_user_byte is derived from
	// their persist latency and bandwidth.
	fcfg.Herd.WAL = walConfig
	// Each shard holds about half the keys, spread over 6 partitions
	// (~22k keys each): the default 16k-bucket index and 4 MB log keep
	// them resident through the measured window's writes.
	fcfg.Herd.Mica = mica.DefaultConfig()
	r, err := buildFleet(p, 4, 32, keys, fcfg)
	if err != nil {
		return nil, err
	}
	r.ops = workload.WriteIntensive(keys, valueSize, 0)
	return r, nil
}

// walConfig is the wal package's default configuration, written out.
var walConfig = wal.Config{
	FlushInterval:  5 * sim.Microsecond,
	FlushBatch:     64,
	PersistLatency: 1 * sim.Microsecond,
	BytesPerSec:    2e9,
	SnapshotEvery:  1 << 20,
	ReplayApply:    20 * sim.Nanosecond,
}

func buildHotCached(p *phases) (*rig, error) {
	const keys, lease = 4096, 25 * sim.Microsecond
	fcfg := fleet.DefaultConfig()
	fcfg.Herd.LeaseTTL = lease
	fcfg.Herd.Mica = mica.Config{IndexBuckets: keys / 2, BucketSlots: 8, LogBytes: 1 << 20}
	// The tracker sits below the near cache and sees only fills, so the
	// threshold counts fills (as in the hotkey experiment).
	fcfg.HotKeyTrack = 16
	fcfg.HotKeyThreshold = 4
	r, err := buildFleet(p, 3, 12, keys, fcfg)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	// A traced run's sink, if the cluster has one, so the cache counters
	// land in its registry too.
	r.cacheTel = r.cl.Telemetry()
	if r.cacheTel == nil {
		r.cacheTel = telemetry.New()
	}
	for i, c := range r.clients {
		r.clients[i] = nearcache.New(c, r.cl.Eng, r.cacheTel,
			nearcache.Config{TTL: lease, Leases: true, Capacity: 1024})
	}
	r.ops = workload.Skewed(keys, valueSize, 0)
	p.connect += lap(&t)
	return r, nil
}

func buildMuxOpen(p *phases) (*rig, error) {
	const hosts, qps, channelsPerHost, keys = 32, 4, 2048, 1 << 16
	t := time.Now()
	cl := cluster.New(cluster.Apt(), 1+hosts, clusterSeed)
	cfg := core.DefaultConfig()
	cfg.MaxClients = hosts * qps
	cfg.Mica = mica.Config{IndexBuckets: keys / 4, BucketSlots: 8, LogBytes: 1 << 22}
	srv, err := core.NewServer(cl.Machine(0), cfg)
	if err != nil {
		return nil, err
	}
	p.cluster = lap(&t)
	if err := preload(srv.Preload, keys); err != nil {
		return nil, err
	}
	p.preload = lap(&t)
	r := &rig{
		cl: cl, servers: []*core.Server{srv}, serverMachines: []*cluster.Machine{cl.Machine(0)},
		rate: 20e6, ops: workload.ReadIntensive(keys, valueSize, 0),
	}
	eps := make([]*mux.Endpoint, hosts)
	for h := range eps {
		if eps[h], err = mux.Connect(srv, cl.Machine(1+h), mux.Config{QPs: qps, ChannelWindow: 4}); err != nil {
			return nil, err
		}
	}
	// Channel j lives on host j%hosts, so round-robin arrivals rotate
	// across hosts as well as channels.
	for j := 0; j < hosts*channelsPerHost; j++ {
		ch, err := eps[j%hosts].OpenChannel()
		if err != nil {
			return nil, err
		}
		r.clients = append(r.clients, ch)
	}
	p.connect = lap(&t)
	return r, nil
}
