package fleet

import (
	"errors"
	"fmt"

	"herdkv/internal/cluster"
	"herdkv/internal/core"
	"herdkv/internal/fault"
	"herdkv/internal/kv"
	"herdkv/internal/mica"
	"herdkv/internal/mux"
	"herdkv/internal/sim"
	"herdkv/internal/telemetry"
)

// Errors returned by deployment operations.
var (
	ErrNoShards        = errors.New("fleet: no live shards")
	ErrMigrating       = errors.New("fleet: a membership change is already in progress")
	ErrUnknownShard    = errors.New("fleet: unknown shard id")
	ErrLastReplica     = errors.New("fleet: cannot remove below one live shard")
	ErrShardNotLive    = errors.New("fleet: shard is not live")
	ErrAllReplicasDown = errors.New("fleet: all replicas failed")
)

// Config parameterizes a fleet deployment.
type Config struct {
	// Herd configures each member HERD server and its clients.
	Herd core.Config
	// Replication is the replica count R per key (default 2, clamped
	// to the live shard count).
	Replication int
	// MigrationBatch is how many keys one background migration step
	// copies (default 64).
	MigrationBatch int
	// MigrationInterval is the virtual-time spacing between migration
	// steps (default 2us), bounding how much control-plane copying can
	// interleave with foreground traffic.
	MigrationInterval sim.Time
	// Probation is how long a client avoids reading from a shard after
	// an operation against it failed terminally (default 200us). Writes
	// still fan out to suspected shards so their caches stay warm for
	// when they return.
	Probation sim.Time
	// HotKeyTrack is the number of keys each client's hot-key detector
	// tracks (a space-saving top-k sketch; see hotkey.go). 0, the
	// default, disables detection and widening entirely — reads stay
	// primary-first.
	HotKeyTrack int
	// HotKeyThreshold is how many reads of one key within the sliding
	// window classify it hot and start widening its reads across the
	// replica set (default 32 when tracking is on).
	HotKeyThreshold int
	// HotKeyWindow is the sliding-window length for hot-key detection
	// (default 100us when tracking is on). Counts age out after at most
	// two windows, so a key that cools stops widening.
	HotKeyWindow sim.Time
	// Versioned switches the fleet to version-stamped replication:
	// every write carries a kv.Version prefix ([epoch 8][seq 8]
	// [flags 1]) inside the stored value, member servers apply
	// mutations in stamp order (core.Config.VersionedValues), deletes
	// become tombstones, writes succeed only when EVERY replica acks
	// (a straggler failure is a partial write, not a success), and
	// reads fan to all replicas and return the highest-stamped state.
	// Off by default — the paper's unversioned first-ack fan-out.
	Versioned bool
	// ReadRepair, with Versioned, back-fills divergent replicas: a
	// read that observes a replica behind the winning version rewrites
	// the winner to it, and partial writes enqueue their key for the
	// background anti-entropy sweep (paced by MigrationBatch /
	// MigrationInterval, like migration). Implies Versioned.
	ReadRepair bool
	// Mux, when non-nil, routes each fleet client's per-shard
	// sub-clients through a shared endpoint (internal/mux) instead of
	// dialing one connected QP set per client per shard. All fleet
	// clients on one machine multiplex over one Mux.QPs-wide pool per
	// shard, so a member server's connected-QP count scales with client
	// machines, not with application clients — the connection-
	// scalability story of docs/SCALABILITY.md applied fleet-wide.
	Mux *mux.Config
}

// Fixed fleet policy. virtualNodes is each shard's point count on the
// consistent-hash ring. A shard's brownout circuit breaker opens after
// breakerThreshold consecutive StatusBusy (overload pushback) failures
// against it and steers reads away for breakerCooldown before letting a
// half-open probe read through. Busy is a brownout signal — the shard
// is alive but refusing work — so the breaker is separate from
// Config.Probation, which marks suspected crashes.
const (
	virtualNodes     = 64
	breakerThreshold = 3
	breakerCooldown  = 200 * sim.Microsecond
)

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
		Probation:         200 * sim.Microsecond,
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
	if c.MigrationBatch < 1 {
		c.MigrationBatch = 64
	}
	if c.MigrationInterval <= 0 {
		c.MigrationInterval = 2 * sim.Microsecond
	}
	if c.Probation <= 0 {
		c.Probation = 200 * sim.Microsecond
	}
	if c.HotKeyTrack > 0 {
		if c.HotKeyThreshold < 1 {
			c.HotKeyThreshold = 32
		}
		if c.HotKeyWindow <= 0 {
			c.HotKeyWindow = 100 * sim.Microsecond
		}
	}
	// Repair is meaningless without version stamps to order replica
	// states, and stamps are only applied server-side when the member
	// config says so.
	if c.ReadRepair {
		c.Versioned = true
	}
	if c.Versioned {
		c.Herd.VersionedValues = true
	}
	// Brownout handling needs shed sub-operations to resolve: without a
	// deadline a busy-retried op spins on server hints forever and the
	// fleet never gets a StatusBusy to steer on. Only ops the server
	// actually sheds are affected, so this is inert unless a member
	// server enables admission control.
	if c.Herd.OpDeadline <= 0 {
		c.Herd.OpDeadline = 4 * c.Herd.RetryTimeout
	}
}

// shard is one ring member: a HERD server plus its liveness flag.
// Shard ids are stable for the deployment's lifetime and never reused;
// a removed shard keeps its id but leaves the ring.
type shard struct {
	id      int
	machine *cluster.Machine
	srv     *core.Server
	live    bool
}

// migEntry is one key scheduled for background copying.
type migEntry struct {
	key   kv.Key
	src   int   // source shard id (value re-read at copy time)
	dests []int // destination shard ids
}

// migration tracks one in-progress membership change.
type migration struct {
	target   *Ring
	queue    []migEntry
	pos      int
	removeID int // shard leaving the ring, or -1
	done     func()
}

// Deployment is a consistent-hash fleet of HERD servers with per-key
// replication. Placement derives from the cluster seed (via
// core.PlacementSeed), so a deployment replays identically for a given
// seed and differs across seeds.
type Deployment struct {
	cfg     Config
	eng     *sim.Engine
	ring    *Ring
	shards  []*shard
	clients []*Client
	mig     *migration

	// endpoints caches the shared mux endpoint per (client machine,
	// shard) when Config.Mux is set; every fleet client on that machine
	// opens channels on the same pool.
	endpoints map[endpointKey]*mux.Endpoint

	// Shard crash recovery (recovery.go): in-progress catch-ups by
	// shard id, the last completed one, and the experiment hook.
	recs         map[int]*recovery
	lastRecovery RecoveryResult
	onRecovered  func(RecoveryResult)

	tel        *telemetry.Sink
	migKeys    *telemetry.Counter
	migRounds  *telemetry.Counter
	migActive  *telemetry.Gauge
	migPending *telemetry.Gauge
	recKeys    *telemetry.Counter
	recRounds  *telemetry.Counter
	recActive  *telemetry.Gauge
	recPending *telemetry.Gauge
	recTime    *telemetry.Gauge

	// Anti-entropy (antientropy.go): the repair work queue, its dedup
	// set, and whether a sweep step is scheduled.
	aeQueue   []kv.Key
	aeQueued  map[kv.Key]bool
	aeRunning bool
	aeSweeps  *telemetry.Counter
	aeKeys    *telemetry.Counter
	aeFixed   *telemetry.Counter
	aePending *telemetry.Gauge
	// Raw mirrors of the sweep counters, for reports without a sink.
	aeKeysN  uint64
	aeFixedN uint64
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
	d.migKeys = d.tel.Counter("fleet.migration.keys")
	d.migRounds = d.tel.Counter("fleet.migration.rounds")
	d.migActive = d.tel.Gauge("fleet.migration.active")
	d.migPending = d.tel.Gauge("fleet.migration.pending")
	d.recKeys = d.tel.Counter("fleet.recovery.keys")
	d.recRounds = d.tel.Counter("fleet.recovery.rounds")
	d.recActive = d.tel.Gauge("fleet.recovery.active")
	d.recPending = d.tel.Gauge("fleet.recovery.pending")
	d.recTime = d.tel.Gauge("fleet.recovery.time")
	d.aeSweeps = d.tel.Counter("fleet.antientropy.sweeps")
	d.aeKeys = d.tel.Counter("fleet.antientropy.keys")
	d.aeFixed = d.tel.Counter("fleet.antientropy.repaired")
	d.aePending = d.tel.Gauge("fleet.antientropy.pending")
	d.aeQueued = make(map[kv.Key]bool)
	d.ring = NewRing(core.PlacementSeed(machines[0]), virtualNodes)
	for _, m := range machines {
		srv, err := core.NewServer(m, cfg.Herd)
		if err != nil {
			return nil, err
		}
		id := len(d.shards)
		sh := &shard{id: id, machine: m, srv: srv, live: true}
		d.shards = append(d.shards, sh)
		d.ring = d.ring.WithShard(id)
		d.watchRecovery(sh)
	}
	return d, nil
}

// endpointKey identifies one machine's shared endpoint to one shard.
type endpointKey struct {
	machine *cluster.Machine
	shard   int
}

// dial returns a sub-client transport from machine m to shard sh:
// a dedicated connected HERD client by default, or a channel on the
// machine's shared mux endpoint when Config.Mux is set.
func (d *Deployment) dial(m *cluster.Machine, sh *shard) (kv.KV, error) {
	if d.cfg.Mux == nil {
		sub, err := sh.srv.ConnectClient(m)
		if err != nil {
			return nil, err
		}
		return sub, nil
	}
	key := endpointKey{machine: m, shard: sh.id}
	ep := d.endpoints[key]
	if ep == nil {
		var err error
		ep, err = mux.Connect(sh.srv, m, *d.cfg.Mux)
		if err != nil {
			return nil, err
		}
		if d.endpoints == nil {
			d.endpoints = make(map[endpointKey]*mux.Endpoint)
		}
		d.endpoints[key] = ep
	}
	ch, err := ep.OpenChannel()
	if err != nil {
		return nil, err
	}
	return ch, nil
}

// Endpoint returns machine m's shared mux endpoint to shard id, or nil
// when muxing is off (or no client on m has dialed that shard yet).
func (d *Deployment) Endpoint(m *cluster.Machine, id int) *mux.Endpoint {
	return d.endpoints[endpointKey{machine: m, shard: id}]
}

// Ring returns the current routing ring (immutable snapshot).
func (d *Deployment) Ring() *Ring { return d.ring }

// Shards returns the number of live shards.
func (d *Deployment) Shards() int {
	n := 0
	for _, sh := range d.shards {
		if sh.live {
			n++
		}
	}
	return n
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

// Preload inserts key on every replica without network traffic.
func (d *Deployment) Preload(key kv.Key, value []byte) error {
	for _, id := range d.Replicas(key) {
		if err := d.shards[id].srv.Preload(key, value); err != nil {
			return err
		}
	}
	return nil
}

// RegisterCrashTargets registers every live shard's server with the
// fault injector, keyed by its machine's node id, so scripted Crash
// events take down the right process.
func (d *Deployment) RegisterCrashTargets(inj *fault.Injector) {
	for _, sh := range d.shards {
		if sh.live {
			inj.SetCrashTarget(sh.machine.Verbs.Node(), sh.srv)
		}
	}
}

// MigrationActive reports whether a membership change is in progress.
func (d *Deployment) MigrationActive() bool { return d.mig != nil }

// AddShard grows the fleet: a new HERD server starts on m, every
// connected client attaches to it, and a background migration copies
// the keys the new shard now replicates. The routing ring switches to
// include the shard only when the copy completes (done, if non-nil,
// runs at that point); until then traffic routes on the old ring.
// Returns the new shard's id.
func (d *Deployment) AddShard(m *cluster.Machine, done func()) (int, error) {
	if d.mig != nil {
		return 0, ErrMigrating
	}
	srv, err := core.NewServer(m, d.cfg.Herd)
	if err != nil {
		return 0, err
	}
	id := len(d.shards)
	sh := &shard{id: id, machine: m, srv: srv, live: true}
	d.shards = append(d.shards, sh)
	d.watchRecovery(sh)
	for _, c := range d.clients {
		if err := c.attach(sh); err != nil {
			return 0, err
		}
	}
	// The new shard must hold every key whose target replica set
	// includes it.
	target := d.ring.WithShard(id)
	var queue []migEntry
	d.scanReplicaKeys(target, id, func(key kv.Key, src int) {
		queue = append(queue, migEntry{key: key, src: src, dests: []int{id}})
	})
	d.startMigration(&migration{target: target, queue: queue, removeID: -1, done: done})
	return id, nil
}

// scanReplicaKeys calls add once for every key whose replica set on
// ring includes shard id, naming the first other live, up shard (in id
// order) that holds it. Writes fan out to all replicas, so scanning
// every such shard's partitions finds each key; a membership set dedupes
// the replicas holding the same one. Down shards are skipped: a crash
// wipes their partitions, and a WAL replay may still be refilling them.
func (d *Deployment) scanReplicaKeys(ring *Ring, id int, add func(key kv.Key, src int)) {
	seen := make(map[kv.Key]struct{})
	for _, src := range d.shards {
		if !src.live || src.id == id || src.srv.Down() {
			continue
		}
		for p := 0; p < d.cfg.Herd.NS; p++ {
			src.srv.Partition(p).Range(func(key mica.Key, _ []byte) bool {
				if _, dup := seen[key]; dup {
					return true
				}
				for _, rep := range ring.Replicas(key, d.cfg.Replication) {
					if rep == id {
						seen[key] = struct{}{}
						add(key, src.id)
						break
					}
				}
				return true
			})
		}
	}
}

// RemoveShard drains shard id out of the fleet: its resident keys are
// copied to their post-removal replica sets in the background, and when
// the copy completes the ring drops the shard, it stops receiving
// traffic, and done (if non-nil) runs. The server process itself keeps
// running (detached) so in-flight operations against it can finish.
func (d *Deployment) RemoveShard(id int, done func()) error {
	if d.mig != nil {
		return ErrMigrating
	}
	if id < 0 || id >= len(d.shards) {
		return ErrUnknownShard
	}
	sh := d.shards[id]
	if !sh.live {
		return ErrShardNotLive
	}
	if d.ring.Size() <= 1 {
		return ErrLastReplica
	}
	target := d.ring.WithoutShard(id)
	rf := d.cfg.Replication
	if n := target.Size(); rf > n {
		rf = n
	}
	// Every key with the leaving shard in its replica set is resident on
	// it (writes fan out), so scanning only the leaving shard finds all
	// keys whose replica sets change. Copying to the full target set is
	// idempotent and heals the replica the removal would otherwise lose.
	var queue []migEntry
	for p := 0; p < d.cfg.Herd.NS; p++ {
		sh.srv.Partition(p).Range(func(key mica.Key, _ []byte) bool {
			queue = append(queue, migEntry{key: key, src: id, dests: target.Replicas(key, rf)})
			return true
		})
	}
	d.startMigration(&migration{target: target, queue: queue, removeID: id, done: done})
	return nil
}

func (d *Deployment) startMigration(m *migration) {
	d.mig = m
	d.migRounds.Inc()
	d.migActive.Set(1)
	d.migPending.Set(int64(len(m.queue)))
	d.eng.After(d.cfg.MigrationInterval, d.migrationStep)
}

// migrationStep copies one batch of keys. Values are re-read from the
// source partition at copy time, so writes that land between the scan
// and the copy are not lost; writes racing the copy itself can still be
// shadowed on the destination (documented in docs/SCALEOUT.md — the
// backing store is a lossy cache, so a stale or missing replica entry
// is within contract).
func (d *Deployment) migrationStep() {
	m := d.mig
	if m == nil {
		return
	}
	end := m.pos + d.cfg.MigrationBatch
	if end > len(m.queue) {
		end = len(m.queue)
	}
	for ; m.pos < end; m.pos++ {
		e := m.queue[m.pos]
		src := d.shards[e.src].srv
		part := src.Partition(mica.Partition(e.key, d.cfg.Herd.NS))
		v, ok := part.Get(e.key)
		if !ok {
			continue // evicted or deleted since the scan
		}
		val := append([]byte(nil), v...)
		for _, dst := range e.dests {
			if dst == e.src {
				continue
			}
			// Preload is a control-plane insert; migration treats a
			// refusal like eviction.
			_ = d.shards[dst].srv.Preload(e.key, val)
		}
		d.migKeys.Inc()
	}
	d.migPending.Set(int64(len(m.queue) - m.pos))
	if m.pos < len(m.queue) {
		d.eng.After(d.cfg.MigrationInterval, d.migrationStep)
		return
	}
	// Commit: swap the ring, detach a leaving shard, release.
	d.ring = m.target
	if m.removeID >= 0 {
		d.shards[m.removeID].live = false
	}
	d.mig = nil
	d.migActive.Set(0)
	if m.done != nil {
		m.done()
	}
}
