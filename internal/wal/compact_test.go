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
	bufs := [][]byte{l.durable, nil, l.pending}
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
	recs, _, _ := decodeAll(l.durable)
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

// TestSnapshotTailMatchesReencode runs a real compaction while
// durable-path records keep arriving, and checks the tail it leaves
// against decode-and-re-encode of the log it compacted, less the
// records logged when the snapshot captured the live state.
func TestSnapshotTailMatchesReencode(t *testing.T) {
	eng := sim.New()
	cfg := testConfig()
	cfg.SnapshotEvery = 256
	l := New(eng, cfg, nil)
	covered := -1
	var compacted []byte
	l.SetSnapshotSource(func(emit func(kv.Key, []byte)) {
		recs, _, _ := decodeAll(l.durable)
		covered = len(recs)
		emit(kv.FromUint64(1), []byte("live"))
		for i := 1; i <= 3; i++ {
			i := i
			eng.After(sim.Time(i)*100*sim.Nanosecond, func() {
				l.AppendDurable(rec(uint64(100+i), "during-snapshot"))
				compacted = append(compacted[:0], l.durable...)
			})
		}
	})
	for i := 0; i < 16; i++ {
		l.Append(rec(uint64(i+1), "some value bytes"), nil)
	}
	l.Flush()
	eng.Run()
	if l.Snapshots() != 1 {
		t.Fatalf("snapshots = %d, want 1", l.Snapshots())
	}
	want := refTail(compacted, covered)
	if len(want) == 0 || !bytes.Equal(l.durable, want) || cap(l.durable) != len(l.durable) {
		t.Fatalf("compacted tail %d bytes (cap %d), re-encoding gives %d", len(l.durable), cap(l.durable), len(want))
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
