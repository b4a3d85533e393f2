package wal

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"herdkv/internal/kv"
	"herdkv/internal/sim"
)

// refTail is compaction as it is specified: decode the log, drop the
// first covered records (the ones the snapshot holds), and re-encode
// the rest.
func refTail(log []byte, covered int) []byte {
	recs, _, _ := decodeAll(log)
	var out []byte
	for _, r := range recs[covered:] {
		out = appendRecord(out, r)
	}
	return out
}

// refRecordsSince is RecordsSince as it is specified: decode every
// buffer and keep the records appended at or after t.
func refRecordsSince(l *Log, t sim.Time) []Record {
	var out []Record
	bufs := [][]byte{flat(l.durable), nil, l.pending}
	if l.inflight != nil {
		bufs[1] = l.inflight.buf
	}
	for _, buf := range bufs {
		recs, _, _ := decodeAll(buf)
		for _, r := range recs {
			if r.At >= t {
				out = append(out, r)
			}
		}
	}
	return out
}

// interleavedLog returns a log whose durable bytes mix AppendDurable
// records with group-committed batches. A batch lands after the
// durable-path records appended while it waited, so append instants in
// the durable log are not monotone. The log is left with one flush in
// flight and more records pending.
func interleavedLog(t *testing.T) *Log {
	eng := sim.New()
	l := New(eng, testConfig(), nil)
	for i := 0; i < 60; i++ {
		i := i
		eng.At(sim.Time(i)*300*sim.Nanosecond, func() {
			switch {
			case i%3 == 0:
				l.AppendDurable(rec(uint64(i+1), fmt.Sprintf("durable-%d", i)))
			case i%5 == 0:
				l.Append(Record{Key: kv.FromUint64(uint64(i + 1))}, nil)
			default:
				l.Append(rec(uint64(i+1), strings.Repeat("v", i)), nil)
			}
			if i%7 == 0 {
				l.Flush()
			}
		})
	}
	eng.RunUntil(59*300*sim.Nanosecond + 1)
	l.Flush()
	l.Append(rec(1000, "pending"), nil)
	if l.inflight == nil || l.npending == 0 {
		t.Fatal("log has no flush in flight or nothing pending")
	}
	recs, _, _ := decodeAll(flat(l.durable))
	monotone := true
	for i := 1; i < len(recs); i++ {
		if recs[i].At < recs[i-1].At {
			monotone = false
		}
	}
	if monotone {
		t.Fatal("durable log's append instants are monotone; the test needs them interleaved")
	}
	return l
}

// TestRecordsSinceMatchesDecode: RecordsSince over durable, in-flight
// and pending records equals decoding all of them and filtering, at
// every cut.
func TestRecordsSinceMatchesDecode(t *testing.T) {
	l := interleavedLog(t)
	cuts := []sim.Time{0, 1 << 40}
	for _, r := range refRecordsSince(l, 0) {
		cuts = append(cuts, r.At, r.At+1)
	}
	for _, cut := range cuts {
		if got, want := l.RecordsSince(cut), refRecordsSince(l, cut); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %v: RecordsSince gave %d records, decoding %d", cut, len(got), len(want))
		}
	}
}

// TestSnapshotTailMatchesReencode runs a real compaction over a log of
// several segments while durable-path records keep arriving, and
// checks the tail it leaves against decode-and-re-encode of the log it
// compacted, less the records logged when the snapshot captured the
// live state. The records that arrive during the snapshot fill the
// rest of the last covered segment and spill into a new one, so the
// cut falls inside a segment: its uncovered part must be copied into a
// segment of exactly its size, and no segment that held covered bytes
// may stay referenced.
func TestSnapshotTailMatchesReencode(t *testing.T) {
	eng := sim.New()
	cfg := testConfig()
	cfg.SnapshotEvery = 3 * segSize
	l := New(eng, cfg, nil)
	big := strings.Repeat("v", 60000) // four frames to a segment
	covered := -1
	var coveredSegs [][]byte
	var compacted []byte
	l.SetSnapshotSource(func(emit func(kv.Key, []byte)) {
		recs, _, _ := decodeAll(flat(l.durable))
		covered = len(recs)
		coveredSegs = append([][]byte(nil), l.durable.segs...)
		emit(kv.FromUint64(1), []byte("live"))
		for i, v := range []string{"during-snapshot", big, "during-snapshot"} {
			i, v := i, v
			eng.After(sim.Time(i+1)*100*sim.Nanosecond, func() {
				l.AppendDurable(rec(uint64(101+i), v))
				compacted = flat(l.durable)
			})
		}
	})
	for i := 0; i < 16; i++ {
		l.Append(rec(uint64(i+1), big), nil)
	}
	l.Flush()
	eng.Run()
	if l.Snapshots() != 1 {
		t.Fatalf("snapshots = %d, want 1", l.Snapshots())
	}
	if len(coveredSegs) < 4 {
		t.Fatalf("the snapshot covered %d segments, want at least 4", len(coveredSegs))
	}
	want := refTail(compacted, covered)
	if len(want) == 0 || !bytes.Equal(flat(l.durable), want) || l.durable.n != len(want) {
		t.Fatalf("compacted tail %d bytes (%d counted), re-encoding gives %d", len(flat(l.durable)), l.durable.n, len(want))
	}
	if len(l.durable.segs) != 2 {
		t.Fatalf("tail spans %d segments, want the cut segment's rest and one new segment", len(l.durable.segs))
	}
	if first := l.durable.segs[0]; cap(first) != len(first) {
		t.Fatalf("the cut segment's rest is %d bytes with capacity %d, want a copy of exactly its size", len(first), cap(first))
	}
	for i, seg := range l.durable.segs {
		for _, old := range coveredSegs {
			if cap(seg) > 0 && cap(old) > 0 && &seg[:cap(seg)][0] == &old[:cap(old)][0] {
				t.Fatalf("tail segment %d is a segment the snapshot covered", i)
			}
		}
	}
}

// TestCompactionKeepsRecordAppendedAtCaptureInstant: a durable-path
// record (a migration or recovery Preload) appended at the very instant
// the snapshot captured the live state, but after the capture, is in
// neither the snapshot nor the state it walked. Compaction must keep it
// in the log, so a crash after the snapshot lands does not lose it.
func TestCompactionKeepsRecordAppendedAtCaptureInstant(t *testing.T) {
	eng := sim.New()
	cfg := testConfig()
	cfg.SnapshotEvery = 1
	l := New(eng, cfg, nil)
	live := map[kv.Key]string{}
	l.SetSnapshotSource(func(emit func(kv.Key, []byte)) {
		for k, v := range live {
			emit(k, []byte(v))
		}
	})
	live[kv.FromUint64(1)] = "flushed"
	l.Append(rec(1, "flushed"), nil)
	l.Flush()
	for !l.snapInProg {
		if !eng.Step() {
			t.Fatal("the flush started no snapshot")
		}
	}
	eng.At(eng.Now(), func() { l.AppendDurable(rec(2, "at-capture")) })
	eng.Run()
	if l.Snapshots() != 1 {
		t.Fatalf("snapshots = %d, want 1", l.Snapshots())
	}
	l.Crash()
	got := map[kv.Key]string{}
	l.Recover(func(r Record) { got[r.Key] = string(r.Value) }, func(RecoverStats) {})
	eng.Run()
	if got[kv.FromUint64(1)] != "flushed" || got[kv.FromUint64(2)] != "at-capture" {
		t.Fatalf("recovered %q and %q, want \"flushed\" and \"at-capture\"", got[kv.FromUint64(1)], got[kv.FromUint64(2)])
	}
}

// TestPreloadDoesNotCompact: records made durable at instant zero,
// before any event has run, are the log's starting image. Many times
// SnapshotEvery of them start no compaction at the first flush, yet
// they stay in the log; run-time growth of SnapshotEvery bytes still
// starts one.
func TestPreloadDoesNotCompact(t *testing.T) {
	eng := sim.New()
	cfg := testConfig()
	cfg.SnapshotEvery = 1024
	l := New(eng, cfg, nil)
	l.SetSnapshotSource(func(emit func(kv.Key, []byte)) {
		emit(kv.FromUint64(1), []byte("live"))
	})
	const preloaded = 256
	for i := 0; i < preloaded; i++ {
		l.AppendDurable(rec(uint64(i+1), "preloaded value"))
	}
	if l.durable.n < 8*cfg.SnapshotEvery {
		t.Fatalf("preloaded %d bytes, want several times SnapshotEvery", l.durable.n)
	}
	l.Append(rec(1000, "first run-time write"), nil)
	l.Flush()
	eng.Run()
	if l.Flushes() != 1 || l.Snapshots() != 0 {
		t.Fatalf("first flush: flushes = %d, snapshots = %d; want 1 and 0", l.Flushes(), l.Snapshots())
	}
	if got := len(l.RecordsSince(0)); got != preloaded+1 {
		t.Fatalf("RecordsSince(0) = %d records, want the %d preloaded and the flushed one", got, preloaded+1)
	}
	for n := uint64(0); l.Snapshots() == 0; n++ {
		if n == 64 {
			t.Fatalf("%d bytes of run-time growth started no compaction", l.durable.n)
		}
		l.Append(rec(2000+n, strings.Repeat("g", 64)), nil)
		l.Flush()
		eng.Run()
	}
}

// TestTornTailPastSegmentBoundary crashes a flush whose batch fills the
// last segment exactly with its first record, so the torn second
// record is the first frame of a new segment. Recovery truncates
// exactly the torn bytes, replays every whole record, and the log keeps
// appending in place after the cut.
func TestTornTailPastSegmentBoundary(t *testing.T) {
	eng := sim.New()
	l := New(eng, testConfig(), nil)
	// 1,024-byte frames fill the first segment but for one more frame.
	const frame = 1024
	value := strings.Repeat("p", frame-len(appendRecord(nil, rec(0, ""))))
	preloaded := segSize/frame - 1
	for i := 0; i < preloaded; i++ {
		l.AppendDurable(rec(uint64(i+1), value))
	}
	l.Append(rec(10000, value), nil)        // fills the first segment
	l.Append(rec(10001, "torn-value"), nil) // torn, at the second's start
	l.CrashTorn()
	if len(l.durable.segs) != 2 || len(l.durable.segs[0]) != segSize {
		t.Fatalf("crash left %d segments, the first %d bytes; want the torn frame alone in a second", len(l.durable.segs), len(l.durable.segs[0]))
	}
	torn := len(l.durable.segs[1])
	if whole := len(appendRecord(nil, rec(10001, "torn-value"))); torn <= 0 || torn >= whole {
		t.Fatalf("torn tail %d bytes, want a proper prefix of the %d-byte frame", torn, whole)
	}

	var stats RecoverStats
	var got []Record
	l.Recover(func(r Record) { got = append(got, r) }, func(s RecoverStats) { stats = s })
	eng.Run()
	if stats.TornBytes != torn || l.durable.n != segSize {
		t.Fatalf("truncated %d bytes to a %d-byte log, want %d and %d", stats.TornBytes, l.durable.n, torn, segSize)
	}
	if len(got) != preloaded+1 || got[len(got)-1].Key != kv.FromUint64(10000) {
		t.Fatalf("replayed %d records, want %d ending with the batch's whole record", len(got), preloaded+1)
	}

	l.Append(rec(20000, "after recovery"), nil)
	l.Flush()
	eng.Run()
	if recs := l.RecordsSince(0); len(recs) != preloaded+2 || string(recs[len(recs)-1].Value) != "after recovery" {
		t.Fatalf("log holds %d records after recovery, want %d ending with the new write", len(recs), preloaded+2)
	}
	if len(l.durable.segs) != 2 || l.durable.n != len(flat(l.durable)) {
		t.Fatalf("log has %d segments and counts %d of %d bytes", len(l.durable.segs), l.durable.n, len(flat(l.durable)))
	}
}

// TestSegmentsMatchFlatStream drives a segment chain and a flat buffer
// through the same random appends, torn appends, truncations and
// prefix drops (at every kind of cut: inside a segment, on a segment
// boundary, the whole stream) and checks after each step that the chain
// holds the flat buffer's bytes, counts them, and walks the same frames.
func TestSegmentsMatchFlatStream(t *testing.T) {
	rng := sim.NewRand(3)
	var s segments
	var ref []byte
	frames := func(buf []byte) (ends []int) {
		off := 0
		walkFrames(buf, func(f []byte) { off += len(f); ends = append(ends, off) })
		return ends
	}
	for step := 0; step < 2000; step++ {
		r := rec(uint64(step), strings.Repeat("x", []int{0, 10, 300, 20000, 60000}[rng.Intn(5)]))
		switch op := rng.Intn(10); {
		case op < 5:
			s.add(r)
			ref = appendRecord(ref, r)
		case op < 7:
			batch := appendRecord(appendRecord(nil, r), rec(1, "second"))
			n := len(batch)
			if op == 6 { // a torn device write: a prefix of the batch
				n = rng.Intn(len(batch))
			}
			s.addFrames(batch[:n])
			ref = append(ref, batch[:n]...)
			if n < len(batch) { // recovery truncates the torn tail next
				clean := s.walk(func([]byte) {})
				s.truncate(clean)
				ref = ref[:walkFrames(ref, func([]byte) {})]
				if clean != len(ref) {
					t.Fatalf("step %d: chain's clean prefix %d bytes, flat %d", step, clean, len(ref))
				}
			}
		case op < 9:
			ends := append([]int{0}, frames(ref)...)
			cut := ends[rng.Intn(len(ends))]
			if op == 8 && len(s.segs) > 1 { // exactly on a segment boundary
				cut = len(s.segs[0])
			}
			s.drop(cut)
			ref = append([]byte(nil), ref[cut:]...)
		default:
			s.drop(s.n)
			ref = nil
		}
		if got := flat(s); !bytes.Equal(got, ref) || s.n != len(ref) {
			t.Fatalf("step %d: chain holds %d bytes (counts %d), flat stream %d", step, len(got), s.n, len(ref))
		}
		for i, seg := range s.segs {
			if len(seg) > segSize || (i > 0 && len(seg) == 0 && i < len(s.segs)-1) {
				t.Fatalf("step %d: segment %d has %d bytes", step, i, len(seg))
			}
		}
		if got, want := s.walk(func([]byte) {}), len(ref); got != want {
			t.Fatalf("step %d: chain walks %d clean bytes, flat %d", step, got, want)
		}
	}
}
