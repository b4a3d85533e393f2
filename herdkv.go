// Package herdkv is a Go reproduction of "Using RDMA Efficiently for
// Key-Value Services" (Kalia, Kaminsky, Andersen — SIGCOMM 2014): the
// HERD key-value cache, the Pilaf and FaRM-KV baselines it is compared
// against, and the simulated RDMA substrate (verbs, RNIC, PCIe, fabric)
// they all run on.
//
// The package is a facade: it re-exports the stable API from the
// internal packages so applications can build and drive a full HERD
// deployment without importing internals.
//
// A minimal session:
//
//	cl := herdkv.NewCluster(herdkv.Apt(), 2, 1)
//	srv, _ := herdkv.NewServer(cl.Machine(0), herdkv.DefaultConfig())
//	cli, _ := srv.ConnectClient(cl.Machine(1))
//	key := herdkv.KeyFromUint64(42)
//	cli.Put(key, []byte("value"), func(r herdkv.Result) {
//	    cli.Get(key, func(r herdkv.Result) { fmt.Println(string(r.Value)) })
//	})
//	cl.Eng.Run() // advance virtual time until quiescent
//
// Everything runs on a deterministic discrete-event simulation of the
// paper's hardware; time, throughput and latency figures are virtual
// and calibrated to ConnectX-3 behavior (see DESIGN.md).
package herdkv

import (
	"herdkv/internal/cluster"
	"herdkv/internal/core"
	"herdkv/internal/farm"
	"herdkv/internal/fault"
	"herdkv/internal/fleet"
	"herdkv/internal/kv"
	"herdkv/internal/mica"
	"herdkv/internal/mux"
	"herdkv/internal/nearcache"
	"herdkv/internal/pilaf"
	"herdkv/internal/sim"
	"herdkv/internal/telemetry"
	"herdkv/internal/wal"
	"herdkv/internal/workload"
)

// Key is a 16-byte keyhash, the item identifier across all systems.
type Key = kv.Key

// KV is the client interface every system implements — HERD
// (Client, FleetClient), Pilaf (PilafClient) and FaRM
// (FarmClient). Drivers written against KV run unchanged on any of
// them.
type KV = kv.KV

// Status classifies an operation outcome with a vocabulary shared by
// all systems: hit, miss, timeout, flushed.
type Status = kv.Status

// Operation outcomes.
const (
	StatusUnknown = kv.StatusUnknown
	StatusHit     = kv.StatusHit
	StatusMiss    = kv.StatusMiss
	StatusTimeout = kv.StatusTimeout
	StatusFlushed = kv.StatusFlushed
)

// KeyFromUint64 derives a well-mixed, non-zero keyhash from n.
func KeyFromUint64(n uint64) Key { return kv.FromUint64(n) }

// Time is a point (or span) of virtual time in picoseconds.
type Time = sim.Time

// Virtual-time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Cluster is a set of simulated machines sharing one fabric and one
// virtual clock (Cluster.Eng).
type Cluster = cluster.Cluster

// Machine is one simulated host.
type Machine = cluster.Machine

// Spec describes a testbed configuration (Table 2 of the paper).
type Spec = cluster.Spec

// Apt returns the 56 Gbps InfiniBand / PCIe 3.0 testbed.
func Apt() Spec { return cluster.Apt() }

// Susitna returns the 40 Gbps RoCE / PCIe 2.0 testbed.
func Susitna() Spec { return cluster.Susitna() }

// NewCluster builds n machines under spec with a deterministic seed.
func NewCluster(spec Spec, n int, seed int64) *Cluster {
	return cluster.New(spec, n, seed)
}

// HERD — the paper's system (internal/core).

// Server is a HERD server: NS processes polling a shared request region,
// each owning a MICA cache partition and a UD response queue pair.
type Server = core.Server

// Client is a HERD client: UC WRITEs for requests, UD RECVs for
// responses.
type Client = core.Client

// Config parameterizes a HERD deployment.
type Config = core.Config

// Result is the outcome of an operation, shared by every system —
// Pilaf and FaRM clients deliver the same type, so application code
// switches on Result.Status regardless of backend.
type Result = core.Result

// DefaultConfig mirrors the paper's evaluation setup (6 server
// processes, window 4, 144-byte inline cutoff).
func DefaultConfig() Config { return core.DefaultConfig() }

// NewServer initializes HERD on machine m.
func NewServer(m *Machine, cfg Config) (*Server, error) { return core.NewServer(m, cfg) }

// RequestPath selects how clients deliver requests (Config.RequestPath).
type RequestPath = core.RequestPath

// Request paths for Config.RequestPath.
const (
	// RequestUC WRITEs requests into the request region over UC (the
	// paper's design, and the default).
	RequestUC = core.RequestUC
	// RequestDC WRITEs requests over the Dynamically Connected
	// transport: one shared responder context at the server NIC.
	RequestDC = core.RequestDC
	// RequestSend SENDs requests over UD (Section 5.5's SEND/SEND).
	RequestSend = core.RequestSend
)

// Durability selects the server write-ahead-log mode
// (docs/DURABILITY.md).
type Durability = core.Durability

// Durability modes for Config.Durability.
const (
	// DurabilityOff keeps the MICA partitions purely volatile (the
	// paper's behavior): a crashed server restarts cold.
	DurabilityOff = core.DurabilityOff
	// DurabilityGroupCommit logs every successful PUT and acks
	// immediately; a batched group commit persists within the flush
	// window, and a crashed server replays its log to rejoin warm.
	DurabilityGroupCommit = core.DurabilityGroupCommit
	// DurabilitySync holds each mutation's response until its log
	// record is durable (log-before-ack).
	DurabilitySync = core.DurabilitySync
)

// WALConfig parameterizes the write-ahead log's group commit and
// persist device (Config.WAL).
type WALConfig = wal.Config

// MicaConfig sizes each HERD cache partition (a lossy MICA cache:
// full buckets and the circular log evict).
type MicaConfig = mica.Config

// Fleet — rendezvous-hashed scale-out with replication and failover
// (docs/SCALEOUT.md). At Replication 1 a fleet is static sharding.

// FleetDeployment is a rendezvous-hashed fleet of HERD servers with
// per-key replication, crash failover and background catch-up of a
// restarted shard.
type FleetDeployment = fleet.Deployment

// FleetClient is one application host's replicated, failover-capable
// view of the fleet.
type FleetClient = fleet.Client

// FleetConfig parameterizes a fleet (per-member HERD config,
// replication factor, reconciliation pacing); versioned replication
// with repair is the fleet's only mode.
type FleetConfig = fleet.Config

// FleetRing is the fleet's rendezvous-hash placement (per-shard
// scores, seeded from the cluster seed).
type FleetRing = fleet.Ring

// DefaultFleetConfig returns the fleet defaults (R=2) over core's HERD
// defaults with retries enabled.
func DefaultFleetConfig() FleetConfig { return fleet.DefaultConfig() }

// FleetPreloadValue returns value's version-zero stored form, the bytes
// FleetDeployment.Preload stores for it (the fleet stamps every value
// with its version).
func FleetPreloadValue(value []byte) []byte { return fleet.PreloadValue(nil, value) }

// NewFleet builds a fleet with one HERD server per machine.
func NewFleet(machines []*Machine, cfg FleetConfig) (*FleetDeployment, error) {
	return fleet.NewDeployment(machines, cfg)
}

// Client near cache — leased local reads with thundering-herd
// suppression (docs/CACHING.md).

// NearCache wraps any KV client with a bounded client-side cache: GET
// hits are served locally for a bounded-staleness window (the
// server's lease when Config.LeaseTTL grants one, capped by the
// cache's own TTL), concurrent misses for one key collapse into a
// single origin fill, and writes through the wrapper invalidate
// locally at submit. It implements KV, so it drops in front of a HERD
// client, a fleet client or a mux channel unchanged.
type NearCache = nearcache.Cache

// NearCacheConfig parameterizes a near cache (TTL, lease mode,
// capacity).
type NearCacheConfig = nearcache.Config

// DefaultNearCacheConfig returns the near-cache defaults (25us TTL,
// 1024 entries, leases off).
func DefaultNearCacheConfig() NearCacheConfig { return nearcache.DefaultConfig() }

// NewNearCache wraps inner with a near cache driven by the cluster's
// virtual clock (pass cl.Eng). tel may be nil.
func NewNearCache(inner KV, clk Clock, tel *Telemetry, cfg NearCacheConfig) *NearCache {
	return nearcache.New(inner, clk, tel, cfg)
}

// Clock is the virtual-time source (Cluster.Eng implements it).
type Clock = sim.Clock

// Endpoint multiplexing — many logical clients over a small shared QP
// pool per host (docs/SCALABILITY.md).

// MuxEndpoint is one host's multiplexer: logical client channels ride
// a fixed pool of connected HERD clients, so server-side QP state
// scales with hosts, not with application clients.
type MuxEndpoint = mux.Endpoint

// MuxChannel is one logical client on an endpoint. It implements KV,
// so code written against a direct HERD client runs unchanged.
type MuxChannel = mux.Channel

// MuxConfig parameterizes an endpoint (pool size, per-channel window).
type MuxConfig = mux.Config

// DefaultMuxConfig returns the endpoint defaults: a 2-QP pool and a
// per-channel window of 4.
func DefaultMuxConfig() MuxConfig { return mux.DefaultConfig() }

// ConnectMux builds an endpoint on machine m backed by a fresh pool of
// cfg.QPs HERD clients connected to srv; open channels on it with
// OpenChannel.
func ConnectMux(srv *Server, m *Machine, cfg MuxConfig) (*MuxEndpoint, error) {
	return mux.Connect(srv, m, cfg)
}

// FarmSymmetric is the symmetric FaRM deployment of Section 2.3: every
// machine hosts a shard and drives load.
type FarmSymmetric = farm.Symmetric

// NewFarmSymmetric builds an n-machine symmetric FaRM deployment.
func NewFarmSymmetric(cl *Cluster, n int, cfg FarmConfig) (*FarmSymmetric, error) {
	return farm.NewSymmetric(cl, n, cfg)
}

// Baselines.

// PilafServer and PilafClient implement Pilaf-em-OPT: READ-based GETs
// over a self-verifying cuckoo table, SEND/RECV PUTs.
type (
	PilafServer = pilaf.Server
	PilafClient = pilaf.Client
	PilafConfig = pilaf.Config
)

// NewPilafServer initializes Pilaf-em-OPT on machine m.
func NewPilafServer(m *Machine, cfg PilafConfig) (*PilafServer, error) {
	return pilaf.NewServer(m, cfg)
}

// DefaultPilafConfig returns a test-scale Pilaf deployment.
func DefaultPilafConfig() PilafConfig { return pilaf.DefaultConfig() }

// FarmServer and FarmClient implement FaRM-em / FaRM-em-VAR: hopscotch
// neighborhood READs for GETs, circular-buffer WRITEs for PUTs.
type (
	FarmServer = farm.Server
	FarmClient = farm.Client
	FarmConfig = farm.Config
	FarmMode   = farm.Mode
)

// FaRM-em value placement modes.
const (
	FarmInline     = farm.InlineMode
	FarmOutOfTable = farm.VarMode
)

// NewFarmServer initializes FaRM-KV on machine m.
func NewFarmServer(m *Machine, cfg FarmConfig) (*FarmServer, error) {
	return farm.NewServer(m, cfg)
}

// DefaultFarmConfig returns a test-scale FaRM-em deployment.
func DefaultFarmConfig() FarmConfig { return farm.DefaultConfig() }

// Workloads.

// Workload describes a request mix (GET fraction, key distribution,
// value size).
type Workload = workload.Config

// WorkloadGen produces a deterministic op stream.
type WorkloadGen = workload.Generator

// Op is one generated request.
type Op = workload.Op

// NewWorkload returns a generator for cfg.
func NewWorkload(cfg Workload) *WorkloadGen { return workload.NewGenerator(cfg) }

// ReadIntensive is the paper's 95% GET workload.
func ReadIntensive(keys uint64, valueSize int, seed int64) Workload {
	return workload.ReadIntensive(keys, valueSize, seed)
}

// WriteIntensive is the paper's 50% GET workload.
func WriteIntensive(keys uint64, valueSize int, seed int64) Workload {
	return workload.WriteIntensive(keys, valueSize, seed)
}

// Skewed is the paper's Zipf(.99) workload.
func Skewed(keys uint64, valueSize int, seed int64) Workload {
	return workload.Skewed(keys, valueSize, seed)
}

// ExpectedValue returns the deterministic verification value written for
// key by the experiment drivers.
func ExpectedValue(key Key, size int) []byte { return workload.ExpectedValue(key, size) }

// Fault injection (docs/ROBUSTNESS.md).

// FaultSchedule is a script of timed fault events (blackouts,
// partitions, loss and corruption windows, crash+restart); hang it on
// Spec.Faults before NewCluster to run chaos.
type FaultSchedule = fault.Schedule

// FaultEvent is one scripted fault.
type FaultEvent = fault.Event

// FaultInjector binds a schedule to one cluster's fabric; reach it via
// Cluster.Faults, register crash targets, then Arm before running.
type FaultInjector = fault.Injector

// ParseFaultSchedule parses the chaos script format (one event per
// line: "crash node=0 at=10ms restart=20ms", "loss from=0 until=30ms
// rate=0.05", ...).
func ParseFaultSchedule(script string) (*FaultSchedule, error) {
	return fault.ParseSchedule(script)
}

// ErrTimedOut is the terminal error of a HERD operation that exhausted
// its retry budget without a response.
var ErrTimedOut = core.ErrTimedOut

// Telemetry (docs/OBSERVABILITY.md).

// Telemetry is a metrics + tracing sink; attach one to a cluster with
// Cluster.SetTelemetry, before building servers and clients on it, to
// instrument every layer of the stack.
type Telemetry = telemetry.Sink

// TelemetryRegistry holds named counters, gauges and latency histograms.
type TelemetryRegistry = telemetry.Registry

// TelemetryTracer records request-lifecycle spans and exports Chrome
// trace_event JSON (WriteChromeTrace).
type TelemetryTracer = telemetry.Tracer

// NewTelemetry returns a metrics-only sink; set its Tracer field (see
// NewTelemetryTracer) to also record lifecycle spans.
func NewTelemetry() *Telemetry { return telemetry.New() }

// NewTelemetryTracer returns an empty span recorder.
func NewTelemetryTracer() *TelemetryTracer { return telemetry.NewTracer() }
