package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"herdkv/internal/kv"
	"herdkv/internal/sim"
)

func testConfig() Config {
	return Config{
		FlushInterval:  5 * sim.Microsecond,
		FlushBatch:     4,
		PersistLatency: 1 * sim.Microsecond,
		BytesPerSec:    2e9,
		SnapshotEvery:  -1, // off unless a test opts in
	}
}

func rec(n uint64, v string) Record {
	return Record{Key: kv.FromUint64(n), Value: []byte(v)}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	var buf []byte
	want := []Record{
		{Key: kv.FromUint64(1), Value: []byte("hello"), Epoch: 3, At: 17 * sim.Microsecond},
		{Key: kv.FromUint64(2), Value: []byte("world"), Epoch: 4, At: 18 * sim.Microsecond},
		{Key: kv.FromUint64(3), Value: nil, Epoch: 4, At: 19 * sim.Microsecond},
	}
	for _, r := range want {
		buf = appendRecord(buf, r)
	}
	if buf[2] != opPut {
		t.Fatalf("op byte = %d, want %d", buf[2], opPut)
	}
	got, clean, torn := decodeAll(buf)
	if clean != len(buf) || torn != 0 {
		t.Fatalf("clean=%d torn=%d, want %d/0", clean, torn, len(buf))
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key ||
			got[i].Epoch != want[i].Epoch || got[i].At != want[i].At ||
			!bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestDecodeTruncatesTornTail(t *testing.T) {
	var buf []byte
	buf = appendRecord(buf, rec(1, "aa"))
	whole := len(buf)
	buf = appendRecord(buf, rec(2, "bb"))
	for _, cut := range []int{whole + 1, whole + 10, len(buf) - 1} {
		got, clean, torn := decodeAll(buf[:cut])
		if len(got) != 1 || clean != whole || torn != cut-whole {
			t.Fatalf("cut=%d: records=%d clean=%d torn=%d, want 1/%d/%d",
				cut, len(got), clean, torn, whole, cut-whole)
		}
	}
	// A flipped byte inside a record fails its checksum and truncates
	// the stream at that record.
	damaged := append([]byte(nil), buf...)
	damaged[whole+5] ^= 0x5a
	got, clean, _ := decodeAll(damaged)
	if len(got) != 1 || clean != whole {
		t.Fatalf("corrupt record not truncated: records=%d clean=%d", len(got), clean)
	}
}

// TestFrameChecksumIsCRC32C pins the frame trailer documented in
// docs/DURABILITY.md: the CRC-32C (Castagnoli) of everything after the
// length field, little-endian.
func TestFrameChecksumIsCRC32C(t *testing.T) {
	frame := appendRecord(nil, Record{Key: kv.FromUint64(9), Value: []byte("value"), Epoch: 2, At: 5})
	body := frame[2 : len(frame)-recSum]
	want := crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli))
	if got := binary.LittleEndian.Uint32(frame[len(frame)-recSum:]); got != want {
		t.Fatalf("frame checksum %#08x, want CRC-32C %#08x", got, want)
	}
}

// TestFrameLengthLimit: the largest value whose frame fits the u16
// length round-trips, and one byte more panics naming the size instead
// of writing a wrapped length that tears the rest of the log.
func TestFrameLengthLimit(t *testing.T) {
	big := bytes.Repeat([]byte{7}, maxValue)
	got, clean, torn := decodeAll(appendRecord(nil, Record{Key: kv.FromUint64(1), Value: big}))
	if len(got) != 1 || torn != 0 || clean == 0 || !bytes.Equal(got[0].Value, big) {
		t.Fatalf("%d-byte value: records=%d clean=%d torn=%d", maxValue, len(got), clean, torn)
	}
	defer func() {
		msg, _ := recover().(string)
		if want := fmt.Sprintf("%d-byte value", maxValue+1); !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want one naming the %s", msg, want)
		}
	}()
	appendRecord(nil, Record{Key: kv.FromUint64(2), Value: make([]byte, maxValue+1)})
}

func TestGroupCommitFlushesOnInterval(t *testing.T) {
	eng := sim.New()
	l := New(eng, testConfig(), nil)
	durableAt := sim.Time(-1)
	l.Append(rec(1, "v"), func() { durableAt = eng.Now() })
	eng.Run()
	if l.Flushes() != 1 {
		t.Fatalf("flushes = %d, want 1", l.Flushes())
	}
	// One record buffers for the 5us interval, then pays the device
	// write: bandwidth + 1us persist latency.
	min := 6 * sim.Microsecond
	if durableAt < min || durableAt > min+sim.Microsecond {
		t.Fatalf("durable at %v, want within [%v, %v]", durableAt, min, min+sim.Microsecond)
	}
}

func TestGroupCommitFlushesOnBatchThreshold(t *testing.T) {
	eng := sim.New()
	l := New(eng, testConfig(), nil)
	calls := 0
	for i := 0; i < 4; i++ { // FlushBatch = 4: fills without the timer
		l.Append(rec(uint64(i+1), "v"), func() { calls++ })
	}
	eng.RunUntil(3 * sim.Microsecond) // < FlushInterval
	if l.Flushes() != 1 || calls != 4 {
		t.Fatalf("flushes=%d acks=%d before the interval, want 1/4", l.Flushes(), calls)
	}
}

func TestCrashDropsPendingAndKeepsDurable(t *testing.T) {
	eng := sim.New()
	l := New(eng, testConfig(), nil)
	l.Append(rec(1, "durable"), nil)
	l.Flush()
	eng.Run() // first record fully persisted
	l.Append(rec(2, "lost"), nil)
	acked := false
	l.Append(rec(3, "lost-too"), func() { acked = true })
	l.Crash()
	eng.Run()
	if acked {
		t.Fatal("ack fired for a record lost in the crash")
	}
	var got []Record
	l.Recover(func(r Record) { got = append(got, r) }, func(RecoverStats) {})
	eng.Run()
	if len(got) != 1 || got[0].Key != kv.FromUint64(1) {
		t.Fatalf("replayed %d records (%v), want just the durable one", len(got), got)
	}
}

func TestCrashMidFlushLeavesTornTailTruncatedOnRecover(t *testing.T) {
	eng := sim.New()
	l := New(eng, testConfig(), nil)
	l.Append(rec(1, "first"), nil)
	l.Append(rec(2, "second"), nil)
	l.Flush()
	// The flush is in flight; crash halfway through the device write.
	var stats RecoverStats
	var got []Record
	eng.After(l.cfg.PersistLatency/2, func() {
		l.Crash()
		l.Recover(func(r Record) { got = append(got, r) },
			func(s RecoverStats) { stats = s })
	})
	eng.Run()
	if stats.TornBytes == 0 {
		t.Fatal("mid-flush crash left no torn tail")
	}
	if l.TornBytes() == 0 {
		t.Fatal("torn bytes not counted")
	}
	for _, r := range got {
		if r.Key != kv.FromUint64(1) && r.Key != kv.FromUint64(2) {
			t.Fatalf("replayed an invented record: %+v", r)
		}
	}
}

func TestCrashTornForcesTornTail(t *testing.T) {
	eng := sim.New()
	l := New(eng, testConfig(), nil)
	l.Append(rec(1, "aaaa"), nil)
	l.Append(rec(2, "bbbb"), nil)
	// No flush in flight: CrashTorn must still model the power failure
	// landing mid-group-commit and cut inside the final record.
	l.CrashTorn()
	var stats RecoverStats
	var got []Record
	l.Recover(func(r Record) { got = append(got, r) }, func(s RecoverStats) { stats = s })
	eng.Run()
	if stats.TornBytes == 0 {
		t.Fatal("CrashTorn produced no torn tail")
	}
	if len(got) != 1 || got[0].Key != kv.FromUint64(1) {
		t.Fatalf("replay = %+v, want exactly the first record", got)
	}
}

// TestCrashTornDuringSnapshot crashes while a compaction holds the
// device: the pending batch still tears (its flush is forced and cut
// inside the last record), the in-progress snapshot is cancelled, and
// recovery replays the old (snapshot, log) pair minus the torn tail.
func TestCrashTornDuringSnapshot(t *testing.T) {
	eng := sim.New()
	cfg := testConfig()
	cfg.SnapshotEvery = 256
	l := New(eng, cfg, nil)
	live := map[kv.Key][]byte{}
	l.SetSnapshotSource(func(emit func(kv.Key, []byte)) {
		for i := uint64(1); i <= 8; i++ {
			k := kv.FromUint64(i)
			if v, ok := live[k]; ok {
				emit(k, v)
			}
		}
	})
	put := func(n uint64, v string) {
		k := kv.FromUint64(n)
		live[k] = []byte(v)
		l.Append(Record{Key: k, Value: []byte(v)}, nil)
	}
	// One full batch of 80-byte values crosses SnapshotEvery, so its
	// commit starts a compaction.
	round := func(r int) {
		for i := uint64(1); i <= 4; i++ {
			put(i, fmt.Sprintf("round-%d-%076d", r, i))
		}
	}
	round(0)
	eng.Run()
	if l.Snapshots() != 1 {
		t.Fatalf("snapshots = %d after the first batch, want 1", l.Snapshots())
	}
	round(1)
	for !l.snapInProg {
		if !eng.Step() {
			t.Fatal("the second batch started no snapshot")
		}
	}
	put(5, "pending-5")
	put(6, "pending-6")
	l.CrashTorn()

	var stats RecoverStats
	got := map[kv.Key]string{}
	l.Recover(func(r Record) { got[r.Key] = string(r.Value) }, func(s RecoverStats) { stats = s })
	eng.Run()
	if stats.TornBytes == 0 {
		t.Fatal("a crash during a snapshot left no torn tail")
	}
	if l.Snapshots() != 1 || stats.SnapshotRecords != 4 {
		t.Fatalf("snapshots = %d, replayed %d snapshot records; want the old snapshot's 4",
			l.Snapshots(), stats.SnapshotRecords)
	}
	for i := uint64(1); i <= 4; i++ {
		if want := fmt.Sprintf("round-1-%076d", i); got[kv.FromUint64(i)] != want {
			t.Fatalf("key %d recovered %q, want %q", i, got[kv.FromUint64(i)], want)
		}
	}
	if got[kv.FromUint64(5)] != "pending-5" {
		t.Fatalf("key 5 recovered %q: the whole record before the tear must survive", got[kv.FromUint64(5)])
	}
	if _, ok := got[kv.FromUint64(6)]; ok {
		t.Fatal("the torn record was replayed")
	}
}

func TestAppendDurableSurvivesImmediateCrash(t *testing.T) {
	eng := sim.New()
	l := New(eng, testConfig(), nil)
	l.AppendDurable(rec(7, "preloaded"))
	l.Crash() // before any flush could have run
	var got []Record
	l.Recover(func(r Record) { got = append(got, r) }, func(RecoverStats) {})
	eng.Run()
	if len(got) != 1 || got[0].Key != kv.FromUint64(7) || string(got[0].Value) != "preloaded" {
		t.Fatalf("replay = %+v, want the preloaded record", got)
	}
}

func TestRecoveryTakesDeviceTime(t *testing.T) {
	eng := sim.New()
	l := New(eng, testConfig(), nil)
	for i := 0; i < 64; i++ {
		l.AppendDurable(rec(uint64(i+1), "0123456789abcdef"))
	}
	l.Crash()
	var doneAt sim.Time
	l.Recover(func(Record) {}, func(RecoverStats) { doneAt = eng.Now() })
	eng.Run()
	if doneAt <= l.cfg.PersistLatency {
		t.Fatalf("recovery completed at %v — replay cost not modeled", doneAt)
	}
}

func TestSnapshotCompactsLog(t *testing.T) {
	eng := sim.New()
	cfg := testConfig()
	cfg.SnapshotEvery = 512
	l := New(eng, cfg, nil)
	// Live state: the last write per key wins; the source serves the
	// current value only.
	live := map[kv.Key][]byte{}
	l.SetSnapshotSource(func(emit func(kv.Key, []byte)) {
		for i := uint64(1); i <= 8; i++ { // deterministic order, no map walk
			k := kv.FromUint64(i)
			if v, ok := live[k]; ok {
				emit(k, v)
			}
		}
	})
	put := func(n uint64, v string) {
		k := kv.FromUint64(n)
		live[k] = []byte(v)
		l.Append(Record{Key: k, Value: []byte(v)}, nil)
	}
	for round := 0; round < 8; round++ {
		for i := uint64(1); i <= 8; i++ {
			put(i, fmt.Sprintf("round-%d", round))
		}
		l.Flush()
		eng.Run()
	}
	if l.Snapshots() == 0 {
		t.Fatal("no compaction despite durable growth past the threshold")
	}
	if l.DurableBytes() >= 8*64*8 {
		t.Fatalf("durable log not compacted: %d bytes", l.DurableBytes())
	}
	// Recovery through the snapshot yields the latest value per key.
	l.Crash()
	got := map[kv.Key]string{}
	l.Recover(func(r Record) {
		got[r.Key] = string(r.Value)
	}, func(RecoverStats) {})
	eng.Run()
	for i := uint64(1); i <= 8; i++ {
		if got[kv.FromUint64(i)] != "round-7" {
			t.Fatalf("key %d recovered %q, want round-7", i, got[kv.FromUint64(i)])
		}
	}
}

func TestRecordsSinceCoversPendingAndDurable(t *testing.T) {
	eng := sim.New()
	l := New(eng, testConfig(), nil)
	l.Append(rec(1, "old"), nil)
	l.Flush()
	eng.Run()
	cut := eng.Now()
	eng.After(sim.Microsecond, func() {
		l.Append(rec(2, "durable-after"), nil)
		l.Flush()
	})
	eng.Run()
	eng.After(sim.Microsecond, func() {
		l.Append(rec(3, "still-pending"), nil)
	})
	eng.RunUntil(eng.Now() + sim.Microsecond + sim.Nanosecond)
	got := l.RecordsSince(cut + 1)
	if len(got) != 2 || got[0].Key != kv.FromUint64(2) || got[1].Key != kv.FromUint64(3) {
		t.Fatalf("RecordsSince = %+v, want records 2 and 3", got)
	}
}

// Append copies the value into the log before it returns: the server
// appends straight from the request slot, which is zeroed and reused
// once the response posts.
func TestAppendCopiesValue(t *testing.T) {
	eng := sim.New()
	l := New(eng, testConfig(), nil)
	r := rec(1, "as appended")
	l.Append(r, nil)
	copy(r.Value, "overwritten")
	if got := l.RecordsSince(0); len(got) != 1 || string(got[0].Value) != "as appended" {
		t.Fatalf("pending record = %+v, want the value as appended", got)
	}
	eng.Run()
	if got := l.RecordsSince(0); len(got) != 1 || string(got[0].Value) != "as appended" {
		t.Fatalf("durable record = %+v, want the value as appended", got)
	}
}

func TestEpochRestoredFromLog(t *testing.T) {
	eng := sim.New()
	l := New(eng, testConfig(), nil)
	l.Append(Record{Key: kv.FromUint64(1), Value: []byte("v"), Epoch: 5}, nil)
	l.Flush()
	eng.Run()
	l.Crash()
	var stats RecoverStats
	l.Recover(func(Record) {}, func(s RecoverStats) { stats = s })
	eng.Run()
	if stats.MaxEpoch != 5 {
		t.Fatalf("MaxEpoch = %d, want 5", stats.MaxEpoch)
	}
}

func TestReplayIsByteDeterministic(t *testing.T) {
	run := func() []byte {
		eng := sim.New()
		l := New(eng, testConfig(), nil)
		for i := 0; i < 32; i++ {
			l.Append(rec(uint64(i%7+1), fmt.Sprintf("v%d", i)), nil)
			if i%5 == 0 {
				l.Flush()
			}
		}
		eng.After(2*sim.Microsecond, func() { l.CrashTorn() })
		eng.Run()
		var out []byte
		l.Recover(func(r Record) { out = appendRecord(out, r) }, func(RecoverStats) {})
		eng.Run()
		return out
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("identical histories replayed differently")
	}
}
