// Package core implements HERD (Section 4 of the paper): the key-value
// cache in which clients WRITE requests over UC into a polled request
// region on the server, and the server replies with unsignaled SENDs
// over UD.
//
// Everything the paper describes is functional here:
//
//   - The request region layout of Figure 8: NS x NC x W slots of 1 KB,
//     with the keyhash in the rightmost 16 bytes so the RNIC's
//     left-to-right DMA ordering makes a nonzero keyhash imply a fully
//     landed request. The server zeroes the keyhash (and LEN) after
//     serving a slot; clients never use a zero keyhash.
//   - EREW partitioning: clients steer each request to the server
//     process that exclusively owns the key's MICA partition by writing
//     into that process's chunk of the request region.
//   - Request formats: a request is [value][tag][LEN][keyhash] written
//     as one WRITE ending at the slot boundary; a GET has no value and a
//     zero LEN, so it is 20 bytes. The tag is the low 16 bits of the
//     client's per-process request sequence number, and the response
//     echoes it (the paper's header carries no request id).
//   - Responses are SENDs over UD — one UD QP per server process, NS UD
//     QPs per client — inlined up to a cutoff (the paper switches to
//     non-inlined SENDs at 144-byte values on Apt), unsignaled, using
//     new requests as implicit completion of old SENDs.
//   - The two-stage prefetch pipeline's effect on per-request CPU time
//     (Section 4.1.1) via the host memory model.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"herdkv/internal/cluster"
	"herdkv/internal/kv"
	"herdkv/internal/mica"
	"herdkv/internal/sim"
	"herdkv/internal/telemetry"
	"herdkv/internal/verbs"
	"herdkv/internal/wal"
	"herdkv/internal/wire"
)

// SlotSize is the request slot size; the maximum key-value item is 1 KB
// (Section 4.2).
const SlotSize = 1024

// Slot field offsets from the END of the slot.
const (
	keyTail = kv.KeySize  // keyhash occupies the rightmost 16 bytes
	lenTail = keyTail + 2 // LEN precedes the keyhash
	tagTail = lenTail + 2 // the request tag precedes LEN
	// respHdr is the response header: status byte, 2-byte value length,
	// and the request's 2-byte tag. Echoing the tag lets clients match
	// responses to the exact op, which makes application-level retries
	// (lost request OR lost response) safe with at-least-once,
	// idempotent re-execution: a late duplicate matches no live op.
	respHdr = 5
)

// Response status codes.
const (
	statusOK       = 1
	statusNotFound = 2
	// statusBusy is the explicit overload pushback: the server process
	// shed the request at poll time — before any MICA work — because
	// its admission queue was full. The response value carries a
	// retry-after hint (busyHintBytes of little-endian nanoseconds)
	// derived from the queue depth and the process's service-time EWMA.
	// The fault injector's damage model (XOR 0x5a, zeroed tail) can
	// never turn a valid status byte into another valid one, so busy
	// responses stay distinguishable from corruption.
	statusBusy = 3
)

// busyHintBytes is the size of the retry-after hint riding a busy
// response, encoded as uint32 nanoseconds.
const busyHintBytes = 4

// leaseBytes is the size of the freshness-lease expiry a lease-granting
// server (Config.LeaseTTL > 0) appends after the value on GET-hit
// responses: the absolute virtual-time expiry as a little-endian
// uint64. The vlen header field still names the value length alone, so
// lease-blind readers of the frame keep working; clients that know the
// server grants leases read the trailing bytes into Result.Lease.
const leaseBytes = 8

// Retry-after hint bounds: the hint is the estimated queue drain time,
// floored so a cold EWMA still spaces retries out, capped so a client
// never parks an op for longer than any plausible drain.
const (
	minBusyHint = 1 * sim.Microsecond
	maxBusyHint = 1 * sim.Millisecond
)

// Config parameterizes a HERD deployment.
type Config struct {
	// NS is the number of server processes (one core each). The paper's
	// evaluation uses 6.
	NS int
	// MaxClients (NC) sizes the request region; the paper uses ~200.
	MaxClients int
	// Window (W) is each client's maximum outstanding requests; the
	// default is 4 (Figure 12 also evaluates 16).
	Window int
	// InlineCutoff is the largest value length sent as an inlined SEND
	// response; larger values go non-inlined (144 on Apt).
	InlineCutoff int
	// Prefetch enables the two-stage request pipeline (Section 4.1.1).
	Prefetch bool
	// Mica configures each per-process cache partition.
	Mica mica.Config

	// RequestPath selects how clients deliver requests: UC WRITEs into
	// the request region (the default, the paper's design), or one of
	// Section 5.5's alternatives, DC WRITEs or UD SENDs.
	RequestPath RequestPath

	// LeaseTTL > 0 makes every GET hit carry a freshness lease expiring
	// LeaseTTL after the serve time: the server promises nothing about
	// the value past that instant, and a client-side near cache
	// (internal/nearcache) may serve the value locally until it. The
	// server keeps no per-lease state — writes are never blocked on
	// outstanding leases, so a lease bounds staleness rather than
	// forbidding it (see docs/CACHING.md). Costs leaseBytes per GET-hit
	// response on the wire. 0 grants no leases.
	LeaseTTL sim.Time

	// RetryTimeout enables application-level retries: UC/UD sacrifice
	// transport-level retransmission, so on (rare) packet loss the
	// client rewrites its request after this much time with no response
	// (Section 2.2.3). Zero disables retries — and with them terminal
	// timeouts: an un-retried lost op simply never completes. The
	// timeout must comfortably exceed worst-case response latency or
	// duplicated responses will waste request-region writes.
	RetryTimeout sim.Time
	// MaxRetries is the per-op retry budget (default 3 when retries are
	// enabled). An op that exhausts it completes with a terminal
	// Result.Err of ErrTimedOut instead of retrying forever. Attempts
	// are spaced by a fixed backoff schedule (see retryBackoff).
	MaxRetries int

	// AdmissionLimit bounds each server process's queue of admitted
	// requests awaiting CPU service. A request landing while the queue
	// is full is shed at poll time — before any MICA work, so a
	// rejected request costs near-zero server CPU — with an explicit
	// busy response carrying a retry-after hint derived from the
	// queue depth and the process's service-time EWMA. 0 disables
	// admission control (the paper's behavior: unbounded queueing,
	// overload surfaces only as latency and eventual client timeouts).
	AdmissionLimit int

	// AdaptiveWindow enables the client-side AIMD window: additive
	// increase on served completions, multiplicative decrease (halve)
	// on busy pushback or terminal timeout, floor 1, ceiling
	// Window. Clients then self-pace under overload instead of
	// retry-storming. Off by default (the paper's fixed W).
	AdaptiveWindow bool

	// Durability selects the write-ahead-log mode (see internal/wal and
	// docs/DURABILITY.md). Off (the default, the paper's behavior) keeps
	// the MICA partitions purely volatile: a crash loses everything and
	// Restart comes back cold. DurabilityGroupCommit logs every
	// successful PUT and acks before the group commit persists
	// (the group-commit window is the exposure). DurabilitySync holds
	// each mutation's response until its log record is durable.
	Durability Durability

	// WAL parameterizes the write-ahead log's group commit and persist
	// device; zero values take the wal package defaults. Ignored when
	// Durability is off.
	WAL wal.Config

	// VersionedValues makes the server order mutations by the
	// kv.Version stamp prefixed to every value (see internal/kv): a
	// PUT whose stamp does not outrank the stored entry's is refused
	// (acked, not applied), so replicas converge to the
	// highest-stamped state no matter the apply order. Off by default
	// (the paper's unversioned cache); the versioned fleet client
	// turns it on for every replica it drives.
	VersionedValues bool
}

// RequestPath is the Config.RequestPath knob.
type RequestPath int

// Request paths.
const (
	// RequestUC WRITEs each request into the request region over a UC
	// connection per client: the paper's WRITE/SEND design.
	RequestUC RequestPath = iota
	// RequestDC WRITEs requests over the Dynamically Connected
	// transport instead of UC. The paper expects Connect-IB's DC to
	// resolve Figure 12's client-scaling limit (Section 5.5): all
	// inbound DC traffic shares one NIC context, so the request path
	// keeps WRITE semantics and WRITE speed without per-client receive
	// state.
	RequestDC
	// RequestSend selects the SEND/SEND architecture of Section 5.5:
	// clients SEND requests over UD instead of WRITEing them into the
	// request region. This costs ~4-5 Mops of peak throughput (inbound
	// SEND processing plus RECV reposting) but removes all connected
	// state from the server NIC, so throughput no longer declines with
	// client count (compare Figure 12).
	RequestSend
)

// Durability is the Config.Durability knob.
type Durability int

// Durability modes.
const (
	// DurabilityOff disables the WAL: the paper's volatile cache.
	DurabilityOff Durability = iota
	// DurabilityGroupCommit logs mutations and acks immediately; the
	// batched group commit persists them within a flush interval.
	DurabilityGroupCommit
	// DurabilitySync logs mutations and acks only once durable
	// (log-before-ack), forcing a flush per mutation.
	DurabilitySync
)

// The application-level retry schedule (Section 2.2.3), in units of
// Config.RetryTimeout: retry k waits RetryTimeout·retryBackoff^k,
// capped at retryBackoffCap·RetryTimeout; reconnect handshake attempt k
// waits reconnectFactor·RetryTimeout·retryBackoff^k, uncapped. Every
// delay, busy-pushback hints included, is then stretched by a seeded
// jitter of up to retryJitter of itself.
const (
	retryBackoff    = 2
	retryBackoffCap = 16
	retryJitter     = 0.1
	reconnectFactor = 20
)

// maxRetries is the effective retry budget: zero means the default.
//
//herd:hotpath
func (c Config) maxRetries() int {
	if c.MaxRetries <= 0 {
		return 3
	}
	return c.MaxRetries
}

// DefaultConfig mirrors the paper's evaluation setup.
func DefaultConfig() Config {
	return Config{
		NS:           6,
		MaxClients:   208,
		Window:       4,
		InlineCutoff: 144,
		Prefetch:     true,
		Mica:         mica.DefaultConfig(),
	}
}

// RegionSize returns the request region size in bytes: NS*NC*W KB.
func (c Config) RegionSize() int { return c.NS * c.MaxClients * c.Window * SlotSize }

// SlotIndex computes the request slot for server process s, client c,
// request sequence r — the paper's s*(W*NC) + (c*W) + r mod W.
//
//herd:hotpath
func (c Config) SlotIndex(s, client, r int) int {
	return s*(c.Window*c.MaxClients) + client*c.Window + r%c.Window
}

// Server is the HERD server machine: NS server processes sharing the
// request region, each owning one MICA partition and one UD QP.
type Server struct {
	cfg       Config
	machine   *cluster.Machine
	region    *verbs.MR
	parts     []*mica.Cache
	udQPs     []*verbs.QP
	sendStage *verbs.MR // SEND/SEND mode RECV staging pool
	dcQP      *verbs.QP // DC mode: the single DC target for all clients
	nextCli   int

	// ucByClient[c] is the server-side UC QP connected to client c's
	// request QP (WRITE mode only); tracked so a crash can error it and
	// a reconnect can replace it.
	ucByClient []*verbs.QP

	// Crash state: down marks the server process dead (requests are
	// ignored, queue pairs errored); epoch increments at each crash so
	// CPU work queued before the crash is discarded when it drains.
	down  bool
	epoch int

	// Durability state (Config.Durability != DurabilityOff): the shared
	// write-ahead log behind all NS partitions, whether a log replay is
	// in progress (the server stays down until it completes), the last
	// completed recovery, and the hook fleet recovery installs to learn
	// when — and how warm — this shard rejoined.
	wlog         *wal.Log
	recovering   bool
	lastRecovery RecoveryInfo
	onRecovered  func(RecoveryInfo)

	// telRecoveryTime records each recovery's duration in nanoseconds.
	telRecoveryTime *telemetry.Gauge

	// clientUD[c][s] is client c's UD QP for responses from process s,
	// registered at connection setup (the paper's address-handle
	// exchange).
	clientUD [][]*verbs.QP

	// respScratch[proc] is the process's preallocated response build
	// buffer. Safe whenever the response is posted before the building
	// event returns (verbs copies WR data at post time); responses that
	// outlive it are built elsewhere (see serveRec.respBuf).
	respScratch [][]byte

	// serveFree pools the records that carry requests through CPU
	// service (see serveRec).
	serveFree []*serveRec

	// Admission control (Config.AdmissionLimit > 0): per-process count
	// of admitted requests awaiting CPU service, and an EWMA of
	// per-request service time. Together they yield the busy
	// retry-after hint: depth x EWMA estimates the queue drain time.
	queued  []int
	svcEWMA []sim.Time

	// Stats
	gets, puts, getHits uint64
	inlineResponses     uint64
	nonInlineResponses  uint64

	// Requests refused as malformed or corrupt, and by admission
	// control; tracked under herd.* when instrumented.
	rejected, shed *telemetry.Counter

	// slotTraces carries a request's lifecycle trace from client to
	// server in WRITE/DC mode, where the request itself travels only as
	// memory bytes: the client registers its trace under the slot it is
	// about to WRITE, and serve() picks it up when the keyhash lands.
	// (SEND/SEND mode instead rides verbs.Completion.Trace.)
	slotTraces map[int]*telemetry.Trace
}

// NewServer initializes HERD on machine m. It plays the role of the
// paper's initializer process (creates and registers the request region)
// plus the NS server processes.
func NewServer(m *cluster.Machine, cfg Config) (*Server, error) {
	if cfg.NS < 1 || cfg.NS > m.CPU.Cores() {
		return nil, fmt.Errorf("core: NS=%d must be in [1, %d cores]", cfg.NS, m.CPU.Cores())
	}
	if cfg.Window < 1 || cfg.MaxClients < 1 {
		return nil, errors.New("core: Window and MaxClients must be positive")
	}
	s := &Server{cfg: cfg, machine: m}
	tel := m.Verbs.Telemetry()
	telemetry.NewCells(tel, &s.rejected, &s.shed)
	tel.Counter("herd.requests.rejected").Track(s.rejected)
	tel.Counter("herd.shed").Track(s.shed)
	s.region = m.Verbs.RegisterMR(cfg.RegionSize())
	s.parts = make([]*mica.Cache, cfg.NS)
	s.udQPs = make([]*verbs.QP, cfg.NS)
	s.ucByClient = make([]*verbs.QP, cfg.MaxClients)
	s.queued = make([]int, cfg.NS)
	s.svcEWMA = make([]sim.Time, cfg.NS)
	s.respScratch = make([][]byte, cfg.NS)
	for i := range s.respScratch {
		s.respScratch[i] = make([]byte, respHdr+mica.MaxValueSize+leaseBytes)
	}
	for i := range s.parts {
		s.parts[i] = mica.New(cfg.Mica)
	}
	if cfg.Durability != DurabilityOff {
		s.wlog = wal.New(m.Verbs.NIC().Engine(), cfg.WAL, tel)
		s.wlog.SetSnapshotSource(s.snapshotLiveState)
		s.telRecoveryTime = tel.Gauge("recovery.time")
	}
	s.createQPs()
	if cfg.RequestPath != RequestSend {
		s.region.Watch(0, cfg.RegionSize(), s.onRequestLanded)
	}
	return s, nil
}

// createQPs builds the server's NIC-side state: per-process UD QPs
// (with the SEND/SEND RECV pool and handlers when that mode is on) and
// the DC target. Called at construction and again at Restart, since
// errored queue pairs cannot be revived.
func (s *Server) createQPs() {
	m, cfg := s.machine, s.cfg
	for i := range s.udQPs {
		s.udQPs[i] = m.Verbs.CreateQP(wire.UD)
	}
	switch cfg.RequestPath {
	case RequestSend:
		// SEND/SEND mode (Section 5.5): each process's UD QP also
		// receives requests; pre-post a deep pool of RECVs per process.
		// Every process needs at least the full client window's worth —
		// integer division must never round a small pool down to zero.
		perProc := 2 * cfg.MaxClients * cfg.Window / cfg.NS
		if min := 2 * cfg.Window; perProc < min {
			perProc = min
		}
		if s.sendStage == nil {
			s.sendStage = m.Verbs.RegisterMR(perProc * cfg.NS * SlotSize)
		}
		for p := 0; p < cfg.NS; p++ {
			p := p
			for w := 0; w < perProc; w++ {
				slot := p*perProc + w
				postLossy(s.udQPs[p].PostRecv(s.sendStage, slot*SlotSize, SlotSize, uint64(slot)))
			}
			s.udQPs[p].RecvCQ().SetHandler(func(comp verbs.Completion) {
				s.onSendRequest(p, comp)
			})
		}
	case RequestDC:
		s.dcQP = m.Verbs.CreateQP(wire.DC)
	}
}

// Crash kills the server process, as a fault.CrashTarget: every
// server-side queue pair transitions to the error state (outstanding
// WRs flush in error), buffered responses and in-flight request traces
// are dropped, and request-region contents are dead — a restarted
// process re-registers the region and starts from zeroed slots. The
// MICA partitions are DRAM and die with the machine: without a WAL the
// server restarts cold; with one, Restart replays snapshot + log tail
// and rejoins warm.
func (s *Server) Crash() {
	if s.down {
		return
	}
	s.down = true
	s.epoch++
	for _, qp := range s.udQPs {
		qp.SetError()
	}
	for _, qp := range s.ucByClient {
		if qp != nil {
			qp.SetError()
		}
	}
	if s.dcQP != nil {
		s.dcQP.SetError()
	}
	s.slotTraces = nil
	for i := range s.parts {
		s.parts[i] = mica.New(s.cfg.Mica)
	}
	if s.wlog != nil {
		s.wlog.Crash()
	}
}

// CrashMidFlush is the fault injector's "flushcrash" variant: the power
// loss lands mid-group-commit, so the WAL's device write is cut
// strictly inside its final record and recovery must truncate a torn
// tail. Without a WAL it degenerates to a plain Crash.
func (s *Server) CrashMidFlush() {
	if s.down {
		return
	}
	if s.wlog != nil {
		s.wlog.CrashTorn()
	}
	s.Crash()
}

// Restart brings a crashed server back: the request region is
// re-registered zeroed (all pre-crash request state is gone) and fresh
// queue pairs replace the errored ones. WRITE-mode clients must run the
// re-registration handshake to reconnect their UC pairs; SEND/SEND and
// DC clients address the server per-message and recover by retrying.
//
// With durability on, the restart is warm: the server stays down while
// the WAL replays snapshot + log tail into fresh MICA partitions (a
// measurable outage on the sim clock), restores its pre-crash epoch
// from the replayed records, and only then accepts requests. Without a
// WAL the restart is cold and immediate.
func (s *Server) Restart() {
	if !s.down || s.recovering {
		return
	}
	if s.wlog == nil {
		s.rejoin()
		s.finishRecovery(RecoveryInfo{At: s.now()})
		return
	}
	s.recovering = true
	start := s.now()
	tr := s.machine.Verbs.Telemetry().StartTrace("recovery", start)
	s.wlog.Recover(s.applyRecord, func(st wal.RecoverStats) {
		s.recovering = false
		// Epoch monotonicity: the replayed records carry the epochs of
		// the writes they logged; never rejoin at or below one of them.
		if st.MaxEpoch >= s.epoch {
			s.epoch = st.MaxEpoch + 1
		}
		s.rejoin()
		tr.Mark("wal.replay", s.now())
		s.finishRecovery(RecoveryInfo{
			Warm:            true,
			At:              s.now(),
			Duration:        s.now() - start,
			Replayed:        st.Records,
			SnapshotRecords: st.SnapshotRecords,
			TornBytes:       st.TornBytes,
			Since:           st.Since,
		})
	})
}

// rejoin is the shared tail of Restart: zeroed region, fresh QPs, up.
func (s *Server) rejoin() {
	buf := s.region.Bytes()
	for i := range buf {
		buf[i] = 0
	}
	s.createQPs()
	s.down = false
}

// finishRecovery records one completed restart and notifies the fleet.
func (s *Server) finishRecovery(info RecoveryInfo) {
	s.lastRecovery = info
	if s.telRecoveryTime != nil {
		s.telRecoveryTime.Set(int64(info.Duration / sim.Nanosecond))
	}
	if s.onRecovered != nil {
		s.onRecovered(info)
	}
}

// applyRecord replays one WAL record into the owning MICA partition,
// through the bulk-load queue.
func (s *Server) applyRecord(r wal.Record) {
	part := s.parts[mica.Partition(r.Key, s.cfg.NS)]
	if s.cfg.VersionedValues {
		_ = part.LoadNewer(r.Key, r.Value)
		return
	}
	_ = part.Load(r.Key, r.Value)
}

// snapshotLiveState walks every partition's live entries for WAL
// snapshot compaction (partition order, then mica.Cache.Range's
// deterministic index-slot order within each).
func (s *Server) snapshotLiveState(emit func(key kv.Key, value []byte)) {
	for _, part := range s.parts {
		part.Range(func(key kv.Key, value []byte) bool {
			emit(key, value)
			return true
		})
	}
}

// now returns the shared sim clock's current instant.
func (s *Server) now() sim.Time { return s.machine.Verbs.NIC().Engine().Now() }

// RecoveryInfo describes one completed Server.Restart.
type RecoveryInfo struct {
	// Warm reports whether the restart replayed a WAL (false: cold).
	Warm bool
	// At is when the server came back up.
	At sim.Time
	// Duration is the replay outage (zero for a cold restart).
	Duration sim.Time
	// Replayed and SnapshotRecords count applied log-tail and snapshot
	// records.
	Replayed        int
	SnapshotRecords int
	// TornBytes is how much torn log tail the replay truncated.
	TornBytes int
	// Since is the instant from which this shard's log may be missing
	// records — the fleet's delta catch-up replays survivors' writes
	// from here.
	Since sim.Time
}

// SetRecoveryHook registers fn to run whenever a Restart completes
// (cold or warm). The fleet layer uses it to start delta catch-up.
func (s *Server) SetRecoveryHook(fn func(RecoveryInfo)) { s.onRecovered = fn }

// LastRecovery returns the most recent completed restart's info.
func (s *Server) LastRecovery() RecoveryInfo { return s.lastRecovery }

// WAL exposes the server's write-ahead log (nil with durability off).
func (s *Server) WAL() *wal.Log { return s.wlog }

// WALRecordsSince returns this shard's logged records appended at or
// after t — the survivor side of a fleet delta catch-up.
func (s *Server) WALRecordsSince(t sim.Time) []wal.Record {
	if s.wlog == nil {
		return nil
	}
	return s.wlog.RecordsSince(t)
}

// Down reports whether the server process is crashed.
//
//herd:hotpath
func (s *Server) Down() bool { return s.down }

// reregister is the server half of the reconnection handshake: a live
// server replaces the client's (errored) server-side UC QP with a fresh
// connected one. Reports whether the handshake succeeded.
func (s *Server) reregister(c *Client) bool {
	if s.down || s.cfg.RequestPath != RequestUC {
		return false
	}
	qp := s.machine.Verbs.CreateQP(wire.UC)
	if err := verbs.Connect(c.reqQP, qp); err != nil {
		return false
	}
	s.ucByClient[c.id] = qp
	return true
}

// Config returns the server configuration.
func (s *Server) Config() Config { return s.cfg }

// Partition returns server process i's cache partition.
func (s *Server) Partition(i int) *mica.Cache { return s.parts[i] }

// Preload inserts an item server-side (no network traffic), routing it
// to the partition that will serve it — used to warm a deployment before
// an experiment, and by the fleet's reconciliation merge to copy keys
// between shards. With durability on it writes through the WAL as
// immediately durable (the control-plane path models data loaded
// before the run): otherwise a crash before the first flush would
// replay the log to a pre-preload view and silently resurrect stale
// state. Items go in through mica's bulk-load path: Cache.Load, or for
// versioned values the ordered Cache.LoadNewer, and each one the
// partition does not reject outright is logged at once. Replay re-runs
// the same loads in the same order, so it refuses exactly the stamps
// the preload refused. Once events have run, a versioned preload on a
// server with a log applies at once with PutNewer and is logged only if
// accepted: a reconciliation back-fill racing a fresher client write
// must never regress the stored version, and a refused (stale) copy
// must not reach the WAL either.
func (s *Server) Preload(key kv.Key, value []byte) error {
	part := s.parts[mica.Partition(key, s.cfg.NS)]
	eng := s.machine.Verbs.NIC().Engine()
	var err error
	switch {
	case !s.cfg.VersionedValues:
		err = part.Load(key, value)
	case s.wlog == nil || eng.Now() == 0 && eng.Processed() == 0:
		err = part.LoadNewer(key, value)
	default:
		var applied bool
		if applied, err = part.PutNewer(key, value); !applied {
			return err
		}
	}
	if err == nil && s.wlog != nil {
		s.wlog.AppendDurable(wal.Record{Key: key, Value: value, Epoch: s.epoch})
	}
	return err
}

// Stats reports server-side operation counts.
func (s *Server) Stats() (gets, getHits, puts uint64) { return s.gets, s.getHits, s.puts }

// Rejected reports requests refused by the length/keyhash validity
// checks (corrupted or malformed).
func (s *Server) Rejected() uint64 { return s.rejected.Value() }

// Shed reports requests refused by admission control with a busy
// pushback (Config.AdmissionLimit).
func (s *Server) Shed() uint64 { return s.shed.Value() }

// SetAdmissionLimit adjusts the admission queue cap at runtime (zero
// disables shedding). Lets tests and experiments brown out a single
// fleet member without reconfiguring the whole deployment.
func (s *Server) SetAdmissionLimit(n int) { s.cfg.AdmissionLimit = n }

// InlineStats reports how responses were sent.
func (s *Server) InlineStats() (inline, nonInline uint64) {
	return s.inlineResponses, s.nonInlineResponses
}

// onRequestLanded fires when a client WRITE completes in the request
// region. The RNIC writes left to right, so by the time the keyhash
// bytes (rightmost) are visible, the whole request is. The landing that
// covers a slot's tail is the polling trigger. A slot whose keyhash was
// rewritten after service (a client retry whose original response was
// lost) is served again: operations are idempotent, and the echoed tag
// lets the client discard duplicate responses.
func (s *Server) onRequestLanded(off, n int) {
	if s.down {
		return // no process is polling a crashed server's region
	}
	end := off + n
	if end%SlotSize != 0 {
		return // not a request-format write
	}
	slot := end/SlotSize - 1
	proc := slot / (s.cfg.Window * s.cfg.MaxClients)
	rest := slot % (s.cfg.Window * s.cfg.MaxClients)
	client := rest / s.cfg.Window
	if proc >= s.cfg.NS {
		return
	}
	s.serve(proc, client, slot)
}

// request is one parsed client operation awaiting CPU service.
type request struct {
	proc, client int
	key          kv.Key
	vlen         int
	value        []byte
	tag          uint16
	slotRaw      []byte // WRITE mode: the slot, whose tail is zeroed after service
	viaSend      bool   // SEND/SEND mode: charge RECV reposting
	trace        *telemetry.Trace
}

// noteTrace registers tr as the lifecycle trace of the next request to
// land in slot (see slotTraces).
func (s *Server) noteTrace(slot int, tr *telemetry.Trace) {
	if tr == nil {
		return
	}
	if s.slotTraces == nil {
		s.slotTraces = make(map[int]*telemetry.Trace)
	}
	s.slotTraces[slot] = tr
}

func (s *Server) takeTrace(slot int) *telemetry.Trace {
	tr, ok := s.slotTraces[slot]
	if ok {
		delete(s.slotTraces, slot)
	}
	return tr
}

// serve parses the request in `slot` (WRITE and DC mode) and admits
// it. A refused request's slot tail is zeroed at once; an admitted
// one's when its response goes out.
func (s *Server) serve(proc, client, slot int) {
	base := slot * SlotSize
	raw := s.region.Bytes()[base : base+SlotSize]
	req, ok := parseRequest(raw, 0)
	if !ok {
		// The client's retry will rewrite the slot.
		s.rejected.Inc()
		zeroTail(raw)
		return
	}
	req.proc, req.client, req.slotRaw = proc, client, raw
	req.trace = s.takeTrace(slot)
	s.admit(req)
}

// parseRequest parses the request that ends at the end of data:
// [value][extra bytes][tag 2][LEN 2][keyhash 16]. ok is false for a
// request the server must refuse. Clients never use a zero keyhash, so
// a zero one means corruption in flight (injected corruption zeroes
// packet tails, where the keyhash lives); a LEN that validLen refuses,
// or that overruns data, is damage too. The tag is copied out: a
// later request may rewrite the slot before this one's response goes
// out (a sync ack waits on the WAL). The value aliases data.
//
//herd:hotpath
func parseRequest(data []byte, extra int) (req request, ok bool) {
	n := len(data)
	copy(req.key[:], data[n-keyTail:])
	req.vlen = int(binary.LittleEndian.Uint16(data[n-lenTail : n-keyTail]))
	req.tag = binary.LittleEndian.Uint16(data[n-tagTail : n-lenTail])
	head := n - tagTail - extra // bytes ahead of the trailing header
	if req.key.IsZero() || !validLen(req.vlen) || req.vlen > head {
		return req, false
	}
	if req.vlen > 0 {
		req.value = data[head-req.vlen : head]
	}
	return req, true
}

// admit sheds a parsed request at poll time, before any MICA work —
// the rejected request costs the process only this check, and the
// client gets an explicit pushback instead of silent queueing — or
// executes it.
func (s *Server) admit(req request) {
	if s.overloaded(req.proc) {
		s.shedRequest(req.proc, req.client, req.tag, req.trace)
		if req.slotRaw != nil {
			zeroTail(req.slotRaw)
		}
		return
	}
	s.execute(req)
}

// overloaded reports whether process proc's admission queue is full.
//
//herd:hotpath
func (s *Server) overloaded(proc int) bool {
	return s.cfg.AdmissionLimit > 0 && s.queued[proc] >= s.cfg.AdmissionLimit
}

// retryAfterHint estimates how long process proc's queue takes to
// drain: depth x service-time EWMA, floored (a cold EWMA must still
// space retries out) and capped.
//
//herd:hotpath
func (s *Server) retryAfterHint(proc int) sim.Time {
	ewma := s.svcEWMA[proc]
	if ewma <= 0 {
		ewma = minBusyHint
	}
	h := sim.Time(s.queued[proc]) * ewma
	if h < minBusyHint {
		h = minBusyHint
	}
	if h > maxBusyHint {
		h = maxBusyHint
	}
	return h
}

// shedRequest refuses one request under overload: an immediate
// busy SEND carrying the retry-after hint, posted without
// touching MICA or the process's service queue.
func (s *Server) shedRequest(proc, client int, tag uint16, tr *telemetry.Trace) {
	s.shed.Inc()
	now := s.machine.Verbs.NIC().Engine().Now()
	tr.SetPrefix("")
	tr.Mark("shed", now)
	tr.SetPrefix("resp.")
	hintNS := uint32(s.retryAfterHint(proc) / sim.Nanosecond)
	// Busy pushbacks always post synchronously (never batched, never
	// deferred behind the WAL), so the process scratch is safe here.
	resp := encodeRespHeader(s.respScratch[proc], statusBusy, busyHintBytes, tag)
	binary.LittleEndian.PutUint32(resp[respHdr:], hintNS)
	dest := s.clientQP(client, proc)
	if dest == nil {
		return
	}
	postLossy(s.udQPs[proc].PostSend(verbs.SendWR{
		Verb:   verbs.SEND,
		Data:   resp,
		Dest:   dest,
		Inline: true,
		Trace:  tr,
	}))
}

// noteService folds one request's CPU service time into proc's EWMA
// (alpha 1/8; the first sample seeds it directly).
//
//herd:hotpath
func (s *Server) noteService(proc int, service sim.Time) {
	if s.svcEWMA[proc] == 0 {
		s.svcEWMA[proc] = service
		return
	}
	s.svcEWMA[proc] += (service - s.svcEWMA[proc]) / 8
}

// validLen reports whether a slot LEN field is structurally possible:
// zero (GET) or a PUT length that fits both the item-size bound and the
// slot ahead of the tag, LEN and keyhash. The check is how
// corrupt-but-delivered requests are rejected (the paper leaves
// integrity to the application).
//
//herd:hotpath
func validLen(vlen int) bool {
	return vlen <= mica.MaxValueSize && vlen <= SlotSize-tagTail
}

// zeroTail clears a slot's LEN + keyhash so a rejected slot is not
// re-served by a later overlapping landing.
//
//herd:hotpath
func zeroTail(raw []byte) {
	for i := SlotSize - lenTail; i < SlotSize; i++ {
		raw[i] = 0
	}
}

// encodeRespHeader writes a response header into dst and returns the
// framed response dst[:respHdr+vlen]; the caller fills the value bytes
// after the header. dst must have capacity for the full response.
//
//herd:hotpath
func encodeRespHeader(dst []byte, status byte, vlen int, tag uint16) []byte {
	h := dst[:respHdr+vlen]
	h[0] = status
	binary.LittleEndian.PutUint16(h[1:3], uint16(vlen))
	binary.LittleEndian.PutUint16(h[3:5], tag)
	return h
}

// execute runs one request on its process's core: poll/RECV handling,
// MICA work (with or without the prefetch pipeline), and the response
// SEND. The request rides a pooled serveRec through CPU service.
func (s *Server) execute(req request) {
	r := s.getServe()
	r.req = req
	if req.value != nil {
		// The value sits in a request slot or RECV buffer that the
		// client's next request may overwrite before service completes
		// (a retried op's duplicate can still be queued after the op
		// completed): keep a copy in the record.
		r.val = append(r.val[:0], req.value...)
		r.req.value = r.val
	}
	r.kind = opGet
	accesses := mica.AccessesPerGet
	if req.vlen > 0 {
		r.kind = opPut
		accesses = mica.AccessesPerPut
	}
	service := s.machine.CPU.RequestService(accesses, s.cfg.Prefetch)
	if req.viaSend {
		service += s.machine.CPU.Params().RecvRepost
	}

	r.epoch = s.epoch
	s.queued[req.proc]++
	s.noteService(req.proc, service)
	s.machine.CPU.Core(req.proc).SubmitHandler(service, r)
}

// serveRec carries one request through its server process: it is the
// sim.Handler the process's core fires when CPU service completes, and
// — under sync durability — the WAL's durable callback. Records are
// pooled per Server. A record returns to the pool once: after its
// response posts (or finds no destination), or when the crash/epoch
// check discards it. A sync-durability record whose WAL callback died
// in a crash is never called again and is left to the garbage
// collector.
type serveRec struct {
	s     *Server
	req   request
	epoch int // the server epoch the request was admitted under
	kind  opKind
	resp  []byte // the framed response, once built

	// hdr holds a header-only response (PUT acks, GET misses),
	// which may wait on the WAL past the serving event; val holds a
	// copy of a PUT's value.
	hdr [respHdr]byte
	val []byte

	// durable is onDurable bound once, so handing it to the WAL
	// allocates nothing.
	durable func()
}

// getServe returns a pooled serve record (or a fresh one).
func (s *Server) getServe() *serveRec {
	if n := len(s.serveFree); n > 0 {
		r := s.serveFree[n-1]
		s.serveFree = s.serveFree[:n-1]
		return r
	}
	r := &serveRec{s: s}
	r.durable = r.onDurable
	return r
}

// release returns r to its server's pool. Nothing may reference r
// afterwards: the next request may reuse it at once.
//
//herd:hotpath
func (r *serveRec) release() {
	r.req = request{}
	r.resp = nil
	r.s.serveFree = append(r.s.serveFree, r)
}

// respBuf returns the buffer a vlen-byte response is built in. A
// header-only response goes in the record, which lives until the
// response posts — after the WAL's group commit under sync durability.
// A value-carrying GET hit posts before the serving event returns, so
// the process's scratch is safe.
//
//herd:hotpath
func (r *serveRec) respBuf(vlen int) []byte {
	if vlen == 0 {
		return r.hdr[:]
	}
	return r.s.respScratch[r.req.proc]
}

// Fire runs at the end of the request's CPU service: the MICA work,
// the WAL append for a mutation, and the response (at once, or at the
// group commit under sync durability).
//
//herd:hotpath
func (r *serveRec) Fire(at sim.Time) {
	s, req := r.s, &r.req
	// The admission queue drains regardless of crash state: the
	// increment happened, so the decrement must too.
	s.queued[req.proc]--
	// Work queued before a crash dies with the process.
	if s.down || s.epoch != r.epoch {
		r.release()
		return
	}
	// The "cpu" span covers poll detection, MICA service, and response
	// posting; what follows gets the "resp." prefix.
	req.trace.SetPrefix("")
	req.trace.Mark("cpu", at)
	req.trace.SetPrefix("resp.")
	part := s.parts[req.proc]
	// logged is set when this request mutated state that the WAL must
	// record (a successful PUT under durability); a stored key is never
	// zero, so a zero key means nothing to log.
	var logged wal.Record
	switch r.kind {
	case opPut:
		s.puts++
		var applied bool
		var err error
		if s.cfg.VersionedValues {
			applied, err = part.PutNewer(req.key, req.value)
		} else {
			err = part.Put(req.key, req.value)
			applied = err == nil
		}
		status := byte(statusOK)
		if err != nil {
			status = statusNotFound
		} else if applied && s.wlog != nil {
			// Append encodes the value into the log before returning, so
			// the record's copy may be reused after the response.
			logged = wal.Record{Key: req.key, Value: req.value, Epoch: r.epoch}
		}
		r.resp = encodeRespHeader(r.respBuf(0), status, 0, req.tag)
	default:
		v, ok := part.Get(req.key)
		s.gets++
		if ok {
			s.getHits++
			ext := 0
			if s.cfg.LeaseTTL > 0 {
				ext = leaseBytes
			}
			r.resp = encodeRespHeader(r.respBuf(len(v)+ext), statusOK, len(v), req.tag)
			copy(r.resp[respHdr:], v)
			if ext > 0 {
				// Grant a lease expiring LeaseTTL from now; the header's
				// vlen stays the value length, the frame just extends.
				r.resp = r.resp[:respHdr+len(v)+ext]
				binary.LittleEndian.PutUint64(r.resp[respHdr+len(v):], uint64(at+s.cfg.LeaseTTL))
			}
		} else {
			r.resp = encodeRespHeader(r.respBuf(0), statusNotFound, 0, req.tag)
		}
	}

	if logged.Key.IsZero() {
		r.respond() // reads and failed mutations: nothing to persist
		return
	}
	if s.cfg.Durability == DurabilitySync {
		// Log-before-ack: the response waits for the record's group
		// commit. A crash in between drops the callback with the ack
		// unsent — the client retries and the operation re-executes
		// idempotently after recovery.
		s.wlog.Append(logged, r.durable)
		s.wlog.Flush()
		return
	}
	// Group commit: ack now, persist within the flush window. The window
	// is the durability exposure — an acked write younger than the last
	// commit can die with a crash, which is exactly what the fleet's
	// delta catch-up re-covers from the surviving replica.
	s.wlog.Append(logged, nil)
	r.respond()
}

// onDurable is the sync-durability ack: the record's mutation reached
// the log device, so the held response may go out.
func (r *serveRec) onDurable() {
	s := r.s
	if s.down || s.epoch != r.epoch {
		r.release()
		return
	}
	r.req.trace.Mark("wal.flush", s.now())
	r.respond()
}

// respond frees the request's slot, posts the response — an unsignaled
// SEND over UD, inlined below the cutoff — and releases the record.
//
//herd:hotpath
func (r *serveRec) respond() {
	s, req := r.s, &r.req
	// Free the slot for the client's next request: zero LEN + key.
	if req.slotRaw != nil {
		zeroTail(req.slotRaw)
	}
	inline := len(r.resp)-respHdr <= s.cfg.InlineCutoff
	if inline {
		s.inlineResponses++
	} else {
		s.nonInlineResponses++
	}
	if dest := s.clientQP(req.client, req.proc); dest != nil {
		postLossy(s.udQPs[req.proc].PostSend(verbs.SendWR{
			Verb:   verbs.SEND,
			Data:   r.resp,
			Dest:   dest,
			Inline: inline,
			Trace:  req.trace,
		}))
	}
	r.release()
}

// sendReqTail is the trailing header of a SEND-mode request:
// [client 2][tag 2][LEN 2][keyhash 16].
const sendReqTail = 2 + tagTail

// onSendRequest handles a SEND/SEND-mode request arriving on process
// proc's UD queue pair: it reposts the consumed RECV, reads the client
// id ahead of the tag, and admits the request.
func (s *Server) onSendRequest(proc int, comp verbs.Completion) {
	if s.down || comp.Flushed {
		return
	}
	data := comp.Data
	if len(data) < sendReqTail {
		s.rejected.Inc()
		return
	}
	// Repost the consumed RECV immediately (its CPU cost is charged in
	// execute).
	postLossy(s.udQPs[proc].PostRecv(s.sendStage, int(comp.WRID)*SlotSize, SlotSize, comp.WRID))

	n := len(data)
	req, ok := parseRequest(data, sendReqTail-tagTail)
	req.client = int(binary.LittleEndian.Uint16(data[n-sendReqTail : n-tagTail]))
	if !ok || req.client >= len(s.clientUD) {
		s.rejected.Inc()
		return
	}
	req.proc, req.viaSend, req.trace = proc, true, comp.Trace
	s.admit(req)
}

// clientQP returns the UD QP on which client receives responses from
// server process proc.
//
//herd:hotpath
func (s *Server) clientQP(client, proc int) *verbs.QP {
	if client >= len(s.clientUD) {
		return nil
	}
	return s.clientUD[client][proc]
}
