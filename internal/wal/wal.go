// Package wal is a deterministic, sim-clock-driven write-ahead log for
// a HERD shard: an append-only record stream (puts with key, value and
// shard epoch) persisted by batched group commit, plus a
// periodic snapshot that compacts the log. It converts the volatile
// MICA partitions into a recoverable store — a crashed shard replays
// snapshot + log tail and rejoins warm instead of cold.
//
// The persist device is modeled the way internal/pcie models DMA: a
// sim.Server resource with a fixed persist latency plus a bandwidth
// term, so flush timing (and therefore sync-mode ack latency) is part
// of the discrete-event simulation and replays byte-identically for a
// given history. The batched group-commit design follows the
// write-optimized NVM log in PAPERS.md: appends buffer in (volatile)
// memory and one device write persists the whole batch when the flush
// interval elapses or the batch threshold fills.
//
// Records are checksummed and length-framed, so a crash that lands
// mid-flush leaves a torn tail the next recovery detects and
// truncates — acknowledged-before-durable writes die with the tail
// (the group-commit window), but replay never applies a damaged
// record. See docs/DURABILITY.md.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"herdkv/internal/kv"
	"herdkv/internal/sim"
	"herdkv/internal/telemetry"
)

// Record is one logged put. At is the virtual append instant; Epoch is
// the shard's crash epoch when the record was appended, so a recovering
// server can restore epoch monotonicity from its log.
type Record struct {
	Key   kv.Key
	Value []byte
	Epoch int
	At    sim.Time
}

// Record framing:
//
//	[u16 payload length][u8 op][u32 epoch][u64 at][16B key][u16 vlen][value][u32 checksum]
//
// The leading length frames the stream; the trailing checksum (over
// everything after the length) is how replay detects a torn tail: a
// record whose frame runs past the persisted bytes, or whose checksum
// mismatches, truncates the log there. Every record is a put, so op is
// always opPut; the byte stays so the frame layout and sizes do not
// change.
const (
	recFixed = 1 + 4 + 8 + kv.KeySize + 2 // op + epoch + at + key + vlen
	recSum   = 4
	opPut    = 1
)

// castagnoli is the CRC-32C table frame checksums use; the standard
// library computes it with CRC instructions where the CPU has them.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxValue is the largest value a frame's u16 payload length can hold.
const maxValue = math.MaxUint16 - recFixed - recSum

// appendRecord encodes r onto buf. It allocates only when buf's
// capacity runs out, so flush loops reusing a grown buffer are
// allocation-free. It panics on a value over maxValue bytes, whose
// frame length would wrap and tear every record logged after it.
//
//herd:hotpath
func appendRecord(buf []byte, r Record) []byte {
	if len(r.Value) > maxValue {
		panic(fmt.Sprintf("wal: %d-byte value exceeds the %d-byte frame limit", len(r.Value), maxValue)) //lint:allow hotalloc — a caller bug, never on a running path
	}
	payload := recFixed + len(r.Value) + recSum
	var hdr [2 + recFixed]byte
	binary.LittleEndian.PutUint16(hdr[0:2], uint16(payload))
	hdr[2] = opPut
	binary.LittleEndian.PutUint32(hdr[3:7], uint32(r.Epoch))
	binary.LittleEndian.PutUint64(hdr[7:15], uint64(r.At))
	copy(hdr[15:31], r.Key[:])
	binary.LittleEndian.PutUint16(hdr[31:33], uint16(len(r.Value)))
	start := len(buf)
	buf = append(buf, hdr[:]...)
	buf = append(buf, r.Value...)
	sum := crc32.Checksum(buf[start+2:], castagnoli)
	var s [recSum]byte
	binary.LittleEndian.PutUint32(s[:], sum)
	return append(buf, s[:]...)
}

// walkFrames calls fn with each frame of buf's longest clean prefix, in
// order, and returns that prefix's byte length. A frame is clean when
// its length fits the stream, its checksum holds and its value length
// agrees with its frame; the first frame that is not (framed wrong,
// cut short, or damaged) ends the walk. Frames alias buf.
func walkFrames(buf []byte, fn func(frame []byte)) (clean int) {
	off := 0
	for off+2 <= len(buf) {
		payload := int(binary.LittleEndian.Uint16(buf[off : off+2]))
		end := off + 2 + payload
		if payload < recFixed+recSum || end > len(buf) {
			break
		}
		body := buf[off+2 : end-recSum]
		sum := binary.LittleEndian.Uint32(buf[end-recSum : end])
		if crc32.Checksum(body, castagnoli) != sum {
			break
		}
		vlen := int(binary.LittleEndian.Uint16(body[recFixed-2 : recFixed]))
		if vlen != payload-recFixed-recSum {
			break
		}
		fn(buf[off:end])
		off = end
	}
	return off
}

// frameAt reads a clean frame's append instant without decoding it.
func frameAt(frame []byte) sim.Time {
	return sim.Time(binary.LittleEndian.Uint64(frame[7:15]))
}

// decodeFrame decodes a clean frame, copying its value out.
func decodeFrame(frame []byte) Record {
	body := frame[2 : len(frame)-recSum]
	r := Record{
		Epoch: int(binary.LittleEndian.Uint32(body[1:5])),
		At:    sim.Time(binary.LittleEndian.Uint64(body[5:13])),
	}
	copy(r.Key[:], body[13:13+kv.KeySize])
	if len(body) > recFixed {
		r.Value = append([]byte(nil), body[recFixed:]...)
	}
	return r
}

// decodeAll decodes the records of buf's longest clean prefix, and
// returns them with that prefix's byte length and how many trailing
// bytes were torn.
func decodeAll(buf []byte) (recs []Record, clean int, torn int) {
	clean = walkFrames(buf, func(f []byte) { recs = append(recs, decodeFrame(f)) })
	return recs, clean, len(buf) - clean
}

// Config parameterizes the log's group commit and persist device.
// Zero values take the defaults below (an NVM-class device).
type Config struct {
	// FlushInterval is the group-commit window: a pending append is
	// persisted at most this long after it buffers (default 5us).
	FlushInterval sim.Time
	// FlushBatch persists early once this many records are pending
	// (default 64).
	FlushBatch int
	// PersistLatency is the fixed per-flush device latency — the NVM
	// write-and-fence cost paid once per group commit (default 1us).
	PersistLatency sim.Time
	// BytesPerSec is the device's sequential write (and recovery read)
	// bandwidth (default 2 GB/s).
	BytesPerSec float64
	// SnapshotEvery triggers snapshot compaction after this many bytes
	// of durable log growth (default 1 MiB; negative disables).
	SnapshotEvery int
	// ReplayApply is the CPU cost of re-applying one record into the
	// MICA partitions during recovery (default 20ns).
	ReplayApply sim.Time
}

func (c Config) withDefaults() Config {
	if c.FlushInterval <= 0 {
		c.FlushInterval = 5 * sim.Microsecond
	}
	if c.FlushBatch <= 0 {
		c.FlushBatch = 64
	}
	if c.PersistLatency <= 0 {
		c.PersistLatency = 1 * sim.Microsecond
	}
	if c.BytesPerSec <= 0 {
		c.BytesPerSec = 2e9
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 1 << 20
	}
	if c.ReplayApply <= 0 {
		c.ReplayApply = 20 * sim.Nanosecond
	}
	return c
}

// flight is one group commit's device write: a pooled sim.Handler the
// device fires at the write's completion. startFlush hands it the
// pending batch's encoded bytes and durable callbacks, and it returns to
// the log's pool when its completion event fires — also when a crash
// cancelled the write, since the event still fires, as a no-op.
type flight struct {
	l      *Log
	gen    int // the log generation the write started under
	buf    []byte
	n      int // records in buf
	cbs    []func()
	start  sim.Time
	dur    sim.Time
	lastAt sim.Time // append instant of the batch's final record
}

// flushTimer is the group-commit interval timer: a pooled record that
// carries the generation it was armed under and returns to the log's
// pool when it fires.
type flushTimer struct {
	l   *Log
	gen int
}

// RecoverStats summarizes one completed replay.
type RecoverStats struct {
	// Records is how many log-tail records were applied.
	Records int
	// SnapshotRecords is how many snapshot entries were applied first.
	SnapshotRecords int
	// TornBytes is how much torn tail this recovery truncated.
	TornBytes int
	// MaxEpoch is the largest epoch seen across applied records (-1
	// when the log was empty).
	MaxEpoch int
	// Since is the instant from which the log may be missing records:
	// the last durable record's append time minus a group-commit
	// guard. A replica-delta catch-up from this instant covers every
	// write the torn/unflushed tail lost.
	Since sim.Time
}

// Log is one shard's write-ahead log. Like every model component it is
// single-goroutine, driven entirely by the sim clock.
type Log struct {
	clk sim.Clock
	cfg Config
	dev *sim.Server

	// pending is the batch awaiting group commit, already encoded:
	// Append frames each record into it as the record buffers, so a
	// value is copied once, into the log, and startFlush hands the bytes
	// to the device write as they are. npending counts its records,
	// pendingAt is the newest one's append instant, and pendingCbs holds
	// the batch's durable callbacks in append order.
	pending    []byte
	npending   int
	pendingAt  sim.Time
	pendingCbs []func()
	durable    []byte
	snapshot   []byte
	snapBase   int // len(durable) right after the last compaction
	lastDurAt  sim.Time
	inflight   *flight
	snapInProg bool
	timerArmed bool
	flushDue   bool // interval elapsed while the device was busy
	maxEpoch   int
	source     func(emit func(key kv.Key, value []byte))

	// Free flight and timer records; each record is in flight at most
	// once at a time.
	flights []*flight
	timers  []*flushTimer

	// gen cancels scheduled completions across a crash: timers and
	// device callbacks captured under an older generation are dead.
	gen     int
	crashed bool

	appends, flushes, replayed uint64
	flushedBytes, tornBytes    uint64
	snapshotBytes, snapshots   uint64

	telAppends, telFlushes   *telemetry.Counter
	telReplayed, telSnapshot *telemetry.Counter
	telTorn                  *telemetry.Counter
}

// New returns an empty log on eng. tel may be nil.
func New(eng *sim.Engine, cfg Config, tel *telemetry.Sink) *Log {
	l := &Log{clk: eng, cfg: cfg.withDefaults(), maxEpoch: -1}
	l.dev = sim.NewServer(eng)
	l.telAppends = tel.Counter("wal.appends")
	l.telFlushes = tel.Counter("wal.flushes")
	l.telReplayed = tel.Counter("wal.replayed")
	l.telSnapshot = tel.Counter("wal.snapshot.bytes")
	l.telTorn = tel.Counter("wal.torn.bytes")
	return l
}

// SetSnapshotSource registers the live-state walker snapshot
// compaction captures — in practice a loop over the shard's
// mica.Cache.Range partitions. Without a source, compaction is off.
func (l *Log) SetSnapshotSource(fn func(emit func(key kv.Key, value []byte))) {
	l.source = fn
}

// xfer returns the device time for n sequential bytes.
//
//herd:hotpath
func (l *Log) xfer(n int) sim.Time {
	if n <= 0 {
		return 0
	}
	return sim.Time(float64(n) / l.cfg.BytesPerSec * float64(sim.Second))
}

// Append buffers one record for the next group commit, encoding it
// into the pending batch at once: r.Value is copied into the log before
// Append returns, so the caller may reuse it. onDurable, if non-nil,
// runs when the record's batch has persisted — the log-before-ack hook
// for sync durability. Appends on a crashed log are dropped (the
// process is dead; nothing should be calling). The whole append and
// group-commit path is allocation-free once warm: the pending buffer
// and the flight and timer records are reused across batches.
//
//herd:hotpath
func (l *Log) Append(r Record, onDurable func()) {
	if l.crashed {
		return
	}
	r.At = l.clk.Now()
	if r.Epoch > l.maxEpoch {
		l.maxEpoch = r.Epoch
	}
	l.appends++
	l.telAppends.Inc()
	l.pending = appendRecord(l.pending, r)
	l.npending++
	l.pendingAt = r.At
	if onDurable != nil {
		l.pendingCbs = append(l.pendingCbs, onDurable)
	}
	if l.npending >= l.cfg.FlushBatch {
		l.kick()
		return
	}
	l.armTimer()
}

// AppendDurable logs one record as immediately durable, bypassing
// group commit and the persist device. This is the control-plane path
// for Server.Preload: preloaded state models data loaded before the
// run starts, so it must be in the log from instant zero — otherwise a
// crash before the first flush would replay to a pre-preload view.
func (l *Log) AppendDurable(r Record) {
	if l.crashed {
		return
	}
	r.At = l.clk.Now()
	if r.Epoch > l.maxEpoch {
		l.maxEpoch = r.Epoch
	}
	l.appends++
	l.telAppends.Inc()
	l.durable = appendRecord(l.durable, r)
	l.lastDurAt = r.At
}

// Flush forces a group commit of everything pending now (sync
// durability calls this after every append; batches still form while
// the device is busy with the previous commit).
//
//herd:hotpath
func (l *Log) Flush() {
	if l.crashed {
		return
	}
	l.kick()
}

// armTimer schedules the group-commit interval flush once per batch;
// with the timer already armed it is a no-op.
//
//herd:hotpath
func (l *Log) armTimer() {
	if l.timerArmed {
		return
	}
	l.timerArmed = true
	var t *flushTimer
	if n := len(l.timers); n > 0 {
		t = l.timers[n-1]
		l.timers = l.timers[:n-1]
	} else {
		t = &flushTimer{l: l} //lint:allow hotalloc — pool miss; the pool grows to the timers in flight
	}
	t.gen = l.gen
	l.clk.AfterHandler(l.cfg.FlushInterval, t)
}

// Fire runs the interval flush, unless a crash since arming made the
// timer stale, and returns the timer to the pool.
//
//herd:hotpath
func (t *flushTimer) Fire(sim.Time) {
	l := t.l
	live := t.gen == l.gen
	l.timers = append(l.timers, t)
	if !live {
		return
	}
	l.timerArmed = false
	l.kick()
}

// kick starts a flush if the device is free; otherwise marks one due
// for when the in-progress write completes.
//
//herd:hotpath
func (l *Log) kick() {
	if l.npending == 0 {
		return
	}
	if l.inflight != nil || l.snapInProg {
		l.flushDue = true
		return
	}
	l.startFlush()
}

// startFlush begins persisting the whole pending batch: one device
// write of the batch's encoded bytes (bandwidth term) plus the fixed
// persist latency. The batch becomes durable — and sync-mode acks
// fire — only at completion; a crash first persists a byte prefix
// proportional to elapsed time, leaving a torn tail. The flight takes
// the pending buffer and callbacks as they are and leaves its own
// emptied ones behind for the next batch.
//
//herd:hotpath
func (l *Log) startFlush() {
	var fl *flight
	if n := len(l.flights); n > 0 {
		fl = l.flights[n-1]
		l.flights = l.flights[:n-1]
	} else {
		fl = &flight{l: l} //lint:allow hotalloc — pool miss; the pool grows to the flights in flight
	}
	fl.gen = l.gen
	fl.buf, l.pending = l.pending, fl.buf
	fl.cbs, l.pendingCbs = l.pendingCbs, fl.cbs
	fl.n, l.npending = l.npending, 0
	fl.lastAt = l.pendingAt
	fl.start = l.clk.Now()
	fl.dur = l.xfer(len(fl.buf)) + l.cfg.PersistLatency
	l.inflight = fl
	l.dev.SubmitHandler(fl.dur, fl)
}

// Fire lands the device write, unless a crash since it started made it
// stale, and returns the flight to the pool.
//
//herd:hotpath
func (fl *flight) Fire(sim.Time) {
	l := fl.l
	if fl.gen == l.gen {
		l.commitFlush(fl)
	}
	clear(fl.cbs)
	fl.buf, fl.cbs = fl.buf[:0], fl.cbs[:0]
	l.flights = append(l.flights, fl)
}

// commitFlush lands one completed device write: the batch is durable,
// its ack callbacks fire, and a snapshot or follow-on flush may start.
//
//herd:hotpath
func (l *Log) commitFlush(fl *flight) {
	l.inflight = nil
	l.durable = append(l.durable, fl.buf...)
	l.lastDurAt = fl.lastAt
	l.flushes++
	l.flushedBytes += uint64(len(fl.buf))
	l.telFlushes.Inc()
	for _, cb := range fl.cbs {
		cb()
	}
	l.maybeSnapshot() //lint:allow hotalloc — compaction, once per SnapshotEvery durable bytes
	if l.flushDue || l.npending >= l.cfg.FlushBatch {
		l.flushDue = false
		l.kick()
	} else if l.npending > 0 {
		l.armTimer()
	}
}

// maybeSnapshot starts a compaction when the durable log has grown
// past the threshold: the live state (via the snapshot source) is
// persisted as a fresh snapshot, and on completion the log truncates
// every record the snapshot already covers. A crash mid-snapshot
// cancels it cleanly — the swap is atomic at completion, so recovery
// always sees either the old (snapshot, log) pair or the new one.
func (l *Log) maybeSnapshot() {
	if l.cfg.SnapshotEvery <= 0 || l.source == nil || l.snapInProg || l.inflight != nil {
		return
	}
	if len(l.durable)-l.snapBase < l.cfg.SnapshotEvery {
		return
	}
	takenAt := l.clk.Now()
	// The snapshot covers exactly the durable bytes logged so far. The
	// log grows only at its end while the snapshot holds the device (no
	// flush can commit, and a crash cancels the snapshot), so the bytes
	// past covered are the tail to keep, even those appended later at
	// this same instant.
	covered := len(l.durable)
	epoch := l.maxEpoch
	if epoch < 0 {
		epoch = 0
	}
	// The live state is at most the old snapshot plus every durable
	// record since, so reserving that much builds the buffer without
	// regrowth (append still grows it if the source holds more).
	buf := make([]byte, 0, len(l.snapshot)+len(l.durable))
	l.source(func(key kv.Key, value []byte) {
		buf = appendRecord(buf, Record{Key: key, Value: value, Epoch: epoch, At: takenAt})
	})
	l.snapInProg = true
	gen := l.gen
	dur := l.xfer(len(buf)) + l.cfg.PersistLatency
	l.dev.Submit(dur, func(sim.Time) {
		if gen != l.gen {
			return
		}
		l.snapInProg = false
		l.snapshot = buf
		l.snapshots++
		l.snapshotBytes += uint64(len(buf))
		l.telSnapshot.Add(uint64(len(buf)))
		// Drop every durable record the snapshot covers, and copy the
		// rest into a tail of exactly its size (nil when empty);
		// replay order (snapshot, then tail) keeps last-writer-wins
		// intact.
		var tail []byte
		if n := len(l.durable) - covered; n > 0 {
			tail = make([]byte, n)
			copy(tail, l.durable[covered:])
		}
		l.durable = tail
		l.snapBase = len(l.durable)
		if l.flushDue || l.npending >= l.cfg.FlushBatch {
			l.flushDue = false
			l.kick()
		}
	})
}

// Crash models power loss: pending (unflushed) records vanish, and a
// flush caught mid-write persists only the byte prefix the device had
// completed — elapsed/duration of the batch — leaving a torn tail for
// recovery to truncate. The durable bytes and snapshot survive (they
// model the NVM/SSD device, not DRAM).
func (l *Log) Crash() {
	l.crashAt(-1)
}

// CrashTorn models the worst-case mid-group-commit power loss: the
// crash lands between append and flush completion, cutting the device
// write strictly inside the batch's final record. If no flush is in
// flight it force-starts one over the pending batch first, even while
// a snapshot holds the device (the crash cancels the snapshot), so a
// "flushcrash" fault event always produces a torn tail to truncate
// (provided anything was pending).
func (l *Log) CrashTorn() {
	if l.crashed {
		return
	}
	if l.inflight == nil && l.npending > 0 {
		l.startFlush()
	}
	cut := -1
	if fl := l.inflight; fl != nil {
		last := 0
		walkFrames(fl.buf, func(f []byte) { last = len(f) })
		if last > 0 {
			cut = len(fl.buf) - last + last/2
		}
	}
	l.crashAt(cut)
}

// crashAt is the shared crash path. cut >= 0 overrides the persisted
// prefix of an in-flight flush (CrashTorn); cut < 0 derives it from
// elapsed device time.
func (l *Log) crashAt(cut int) {
	if l.crashed {
		return
	}
	l.crashed = true
	l.gen++
	l.timerArmed = false
	l.flushDue = false
	l.snapInProg = false
	l.pending, l.npending = l.pending[:0], 0
	clear(l.pendingCbs)
	l.pendingCbs = l.pendingCbs[:0]
	if fl := l.inflight; fl != nil {
		n := cut
		if n < 0 {
			elapsed := l.clk.Now() - fl.start
			if fl.dur > 0 {
				n = int(float64(len(fl.buf)) * float64(elapsed) / float64(fl.dur))
			}
		}
		if n > len(fl.buf) {
			n = len(fl.buf)
		}
		if n > 0 {
			l.durable = append(l.durable, fl.buf[:n]...)
		}
		l.inflight = nil
	}
}

// Recover replays the log after a crash: the device reads snapshot +
// log (bandwidth plus one persist latency as the mount cost), the torn
// tail is truncated, and apply runs per surviving record — snapshot
// entries first, then the log tail in append order. done fires when
// replay completes, after which the log accepts appends again. The
// whole sequence is one scheduled event chain on the sim clock, so a
// recovering server stays down for a duration the experiment can
// measure.
func (l *Log) Recover(apply func(Record), done func(RecoverStats)) {
	readBytes := len(l.snapshot) + len(l.durable)
	snapRecs, _, _ := decodeAll(l.snapshot)
	logRecs, clean, torn := decodeAll(l.durable)
	l.durable = l.durable[:clean]
	l.snapBase = clean
	if torn > 0 {
		l.tornBytes += uint64(torn)
		l.telTorn.Add(uint64(torn))
	}
	cost := l.xfer(readBytes) + l.cfg.PersistLatency +
		sim.Time(len(snapRecs)+len(logRecs))*l.cfg.ReplayApply
	gen := l.gen
	l.dev.Submit(cost, func(sim.Time) {
		if gen != l.gen {
			return
		}
		maxEpoch := -1
		for _, r := range snapRecs {
			if r.Epoch > maxEpoch {
				maxEpoch = r.Epoch
			}
			apply(r)
		}
		for _, r := range logRecs {
			if r.Epoch > maxEpoch {
				maxEpoch = r.Epoch
			}
			apply(r)
		}
		n := len(snapRecs) + len(logRecs)
		l.replayed += uint64(n)
		l.telReplayed.Add(uint64(n))
		l.crashed = false
		since := l.lastDurAt - 2*l.cfg.FlushInterval
		if since < 0 {
			since = 0
		}
		done(RecoverStats{
			Records:         len(logRecs),
			SnapshotRecords: len(snapRecs),
			TornBytes:       torn,
			MaxEpoch:        maxEpoch,
			Since:           since,
		})
	})
}

// RecordsSince returns every record (durable and pending) appended at
// or after t, in append order — the replica-side source for a fleet
// delta catch-up: a rejoining peer replays its own log, then asks
// survivors for the writes its lost tail may have missed. Only the
// returned records are decoded.
func (l *Log) RecordsSince(t sim.Time) []Record {
	var out []Record
	collect := func(f []byte) {
		if frameAt(f) >= t {
			out = append(out, decodeFrame(f))
		}
	}
	walkFrames(l.durable, collect)
	if fl := l.inflight; fl != nil {
		walkFrames(fl.buf, collect)
	}
	walkFrames(l.pending, collect)
	return out
}

// LastDurableAt returns the append instant of the newest durable
// record (zero for an empty log).
func (l *Log) LastDurableAt() sim.Time { return l.lastDurAt }

// Pending reports how many appends await group commit (including an
// in-flight flush).
func (l *Log) Pending() int {
	n := l.npending
	if fl := l.inflight; fl != nil {
		n += fl.n
	}
	return n
}

// DurableBytes reports the current durable log size (post-compaction
// tail only).
func (l *Log) DurableBytes() int { return len(l.durable) }

// SnapshotLen reports the current snapshot size in bytes.
func (l *Log) SnapshotLen() int { return len(l.snapshot) }

// Stats snapshot accessors.

// Appends reports total records appended (durable-path included).
func (l *Log) Appends() uint64 { return l.appends }

// Flushes reports completed group commits.
func (l *Log) Flushes() uint64 { return l.flushes }

// Replayed reports records applied across all recoveries.
func (l *Log) Replayed() uint64 { return l.replayed }

// TornBytes reports bytes truncated as torn tails across recoveries.
func (l *Log) TornBytes() uint64 { return l.tornBytes }

// Snapshots reports completed compactions.
func (l *Log) Snapshots() uint64 { return l.snapshots }

// SnapshotBytes reports total bytes written as snapshots.
func (l *Log) SnapshotBytes() uint64 { return l.snapshotBytes }

// Utilization reports the persist device's busy fraction so far.
func (l *Log) Utilization() float64 { return l.dev.Utilization() }
