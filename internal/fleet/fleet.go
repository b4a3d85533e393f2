package fleet

import (
	"errors"
	"fmt"

	"herdkv/internal/cluster"
	"herdkv/internal/core"
	"herdkv/internal/fault"
	"herdkv/internal/kv"
	"herdkv/internal/sim"
	"herdkv/internal/telemetry"
)

// Errors returned by deployment operations.
var (
	ErrNoShards        = errors.New("fleet: no live shards")
	ErrAllReplicasDown = errors.New("fleet: all replicas failed")
)

// Config parameterizes a fleet deployment.
type Config struct {
	// Herd configures each member HERD server and its clients.
	Herd core.Config
	// Replication is the replica count R per key (default 2, clamped
	// to the shard count and to 4). At 1 the fleet is static
	// sharding: every key lives on one shard.
	Replication int
	// MigrationBatch is how many queued keys one background
	// reconciliation step merges (default 64): recovery catch-up and
	// anti-entropy share the queue and the step.
	MigrationBatch int
	// MigrationInterval is the virtual-time spacing between those
	// steps (default 2us), bounding how much control-plane copying can
	// interleave with foreground traffic.
	MigrationInterval sim.Time
	// HotKeyTrack, HotKeyThreshold, Versioned and ReadRepair are
	// ignored: the fleet no longer widens hot reads (the near cache
	// absorbs the repeats), and versioned replication with repair is its
	// only mode (see Client). They stay only so existing configs
	// compile, and leave with the next benchmark change.
	HotKeyTrack     int
	HotKeyThreshold int
	Versioned       bool
	ReadRepair      bool
}

// Fixed fleet policy. For probation after an operation against a shard
// failed terminally, a read that would ask that shard alone asks every
// up replica instead; writes still fan out to suspected shards so their
// caches stay warm for when they return. Busy pushback from an
// admission-limited shard never reaches this policy: the member client
// resubmits at the server's hint until the op is admitted.
const probation = 200 * sim.Microsecond

// DefaultConfig returns the fleet defaults on top of core's HERD
// defaults (with retries enabled: failover needs terminal timeouts).
func DefaultConfig() Config {
	hc := core.DefaultConfig()
	hc.RetryTimeout = 12 * sim.Microsecond
	return Config{
		Herd:              hc,
		Replication:       2,
		MigrationBatch:    64,
		MigrationInterval: 2 * sim.Microsecond,
	}
}

func (c *Config) setDefaults() {
	// Failover needs terminal timeouts: with retries disabled an
	// operation against a crashed shard would hang forever instead of
	// failing over, so the fleet always enables them.
	if c.Herd.RetryTimeout <= 0 {
		c.Herd.RetryTimeout = 12 * sim.Microsecond
	}
	if c.Replication < 1 {
		c.Replication = 2
	}
	c.Replication = min(c.Replication, maxDepth)
	if c.MigrationBatch < 1 {
		c.MigrationBatch = 64
	}
	if c.MigrationInterval <= 0 {
		c.MigrationInterval = 2 * sim.Microsecond
	}
	// Every write carries a kv.Version stamp inside its stored value,
	// and member servers apply mutations in stamp order.
	c.Herd.VersionedValues = true
}

// shard is one ring member: a HERD server on its machine. A shard's id
// is its index in Deployment.shards.
type shard struct {
	id      int
	machine *cluster.Machine
	srv     *core.Server
}

// Deployment is a rendezvous-hashed fleet of HERD servers with per-key
// replication. Placement derives from the cluster seed (via
// PlacementSeed), so a deployment replays identically for a given seed
// and differs across seeds.
type Deployment struct {
	cfg     Config
	eng     *sim.Engine
	ring    *Ring
	shards  []*shard
	clients []*Client

	// Shard crash recovery (recovery.go): catch-ups in progress, in
	// start order, and the last completed one.
	recs         []*recovery
	lastRecovery RecoveryResult

	tel       *telemetry.Sink
	recKeys   *telemetry.Counter
	recRounds *telemetry.Counter
	recActive *telemetry.Gauge
	recTime   *telemetry.Gauge

	// Reconciliation (antientropy.go): the key queue, its dedup set,
	// whether a step is scheduled, how many keys the step has merged
	// and how many merges wrote a replica (the last two tracked under
	// fleet.antientropy.keys and .repaired when instrumented).
	aeQueue   []kv.Key
	aeQueued  map[kv.Key]bool
	aeRunning bool
	aeMerged  *telemetry.Counter
	aeFixed   *telemetry.Counter
	aeSweeps  *telemetry.Counter
	aePending *telemetry.Gauge
}

// NewDeployment builds a fleet with one HERD server per machine. All
// machines must belong to the same cluster (they share its engine).
func NewDeployment(machines []*cluster.Machine, cfg Config) (*Deployment, error) {
	if len(machines) < 1 {
		return nil, fmt.Errorf("fleet: deployment needs at least one server machine")
	}
	cfg.setDefaults()
	d := &Deployment{
		cfg: cfg,
		eng: machines[0].Verbs.NIC().Engine(),
		tel: machines[0].Verbs.Telemetry(),
	}
	telemetry.NewCells(d.tel, &d.aeMerged, &d.aeFixed)
	d.recKeys = d.tel.Counter("fleet.recovery.keys")
	d.recRounds = d.tel.Counter("fleet.recovery.rounds")
	d.recActive = d.tel.Gauge("fleet.recovery.active")
	d.recTime = d.tel.Gauge("fleet.recovery.time")
	d.aeSweeps = d.tel.Counter("fleet.antientropy.sweeps")
	d.tel.Counter("fleet.antientropy.keys").Track(d.aeMerged)
	d.tel.Counter("fleet.antientropy.repaired").Track(d.aeFixed)
	d.aePending = d.tel.Gauge("fleet.antientropy.pending")
	d.aeQueued = make(map[kv.Key]bool)
	d.ring = NewRing(PlacementSeed(machines[0]), cfg.Replication, len(machines))
	for id, m := range machines {
		srv, err := core.NewServer(m, cfg.Herd)
		if err != nil {
			return nil, err
		}
		sh := &shard{id: id, machine: m, srv: srv}
		d.shards = append(d.shards, sh)
		srv.SetRecoveryHook(func(info core.RecoveryInfo) { d.onShardRecovered(sh, info) })
	}
	return d, nil
}

// Server returns shard id's server (nil for unknown ids).
func (d *Deployment) Server(id int) *core.Server {
	if id < 0 || id >= len(d.shards) {
		return nil
	}
	return d.shards[id].srv
}

// Replication returns the effective replica count: configured R clamped
// to the ring size.
//
//herd:hotpath
func (d *Deployment) Replication() int {
	r := d.cfg.Replication
	if n := d.ring.Size(); r > n {
		r = n
	}
	return r
}

// Replicas returns key's current replica set (primary first). The
// slice is shared and read-only (see Ring.Replicas).
//
//herd:hotpath
func (d *Deployment) Replicas(key kv.Key) []int {
	return d.ring.Replicas(key, d.Replication())
}

// Preload inserts key on every replica without network traffic. It
// stores value as given, so a caller passes the stored form that
// PreloadValue builds: an unstamped value would be parsed as a stamp.
// The stamp moves inside Preload with the next benchmark change.
func (d *Deployment) Preload(key kv.Key, value []byte) error {
	for _, id := range d.Replicas(key) {
		if err := d.shards[id].srv.Preload(key, value); err != nil {
			return err
		}
	}
	return nil
}

// PreloadValue appends value's version-zero stored form, the stamp
// then the value, to dst and returns it.
func PreloadValue(dst, value []byte) []byte {
	return append(kv.AppendVersion(dst, kv.Version{}, false), value...)
}

// RegisterCrashTargets registers every shard's server with the fault
// injector, keyed by its machine's node id, so scripted Crash events
// take down the right process.
func (d *Deployment) RegisterCrashTargets(inj *fault.Injector) {
	for _, sh := range d.shards {
		inj.SetCrashTarget(sh.machine.Verbs.Node(), sh.srv)
	}
}
