package core

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"herdkv/internal/kv"
	"herdkv/internal/mica"
	"herdkv/internal/sim"
	"herdkv/internal/wal"
)

func durableConfig(mode Durability) Config {
	cfg := smallConfig()
	cfg.Durability = mode
	return cfg
}

// lookup reads a key straight from the owning partition (no network).
func lookup(s *Server, key kv.Key) ([]byte, bool) {
	return s.Partition(mica.Partition(key, s.Config().NS)).Get(key)
}

// TestPreloadWritesThroughWAL is the satellite regression: preloaded
// state must be durable from instant zero, or a crash before the first
// flush replays the log to a pre-preload view.
func TestPreloadWritesThroughWAL(t *testing.T) {
	cl, srv, _ := newHERD(t, durableConfig(DurabilityGroupCommit), 1)
	key := kv.FromUint64(7)
	if err := srv.Preload(key, []byte("preloaded")); err != nil {
		t.Fatal(err)
	}
	// Crash before any flush interval could elapse: t is still 0.
	srv.Crash()
	if _, ok := lookup(srv, key); ok {
		t.Fatal("partitions survived the crash")
	}
	srv.Restart()
	cl.Eng.Run()
	if v, ok := lookup(srv, key); !ok || !bytes.Equal(v, []byte("preloaded")) {
		t.Fatalf("after warm restart: value=%q ok=%v, want the preloaded value", v, ok)
	}
	if !srv.LastRecovery().Warm {
		t.Fatal("restart was not warm")
	}
}

// TestVersionedPreloadWritesThroughWAL is TestPreloadWritesThroughWAL
// on a versioned server, whose instant-zero preload waits in its
// partition's bulk-load queue: either crash must log it before the
// partitions die, so the warm restart restores it.
func TestVersionedPreloadWritesThroughWAL(t *testing.T) {
	for _, tc := range []struct {
		name  string
		crash func(*Server)
	}{{"Crash", (*Server).Crash}, {"CrashMidFlush", (*Server).CrashMidFlush}} {
		cfg := durableConfig(DurabilityGroupCommit)
		cfg.VersionedValues = true
		cl, srv, _ := newHERD(t, cfg, 1)
		key, value := kv.FromUint64(7), stamped(1, 1, "preloaded")
		if err := srv.Preload(key, value); err != nil {
			t.Fatal(err)
		}
		tc.crash(srv)
		srv.Restart()
		cl.Eng.Run()
		if v, ok := lookup(srv, key); !ok || !bytes.Equal(v, value) {
			t.Fatalf("%s, then a warm restart: value=%q ok=%v, want the preloaded value", tc.name, v, ok)
		}
	}
}

// TestRefusedPreloadNotLogged: a preload the partition refuses (an
// oversized value, a zero keyhash) must not reach the WAL. A logged
// 70,000-byte value would also wrap its frame's u16 length, tearing
// every record after it at recovery.
func TestRefusedPreloadNotLogged(t *testing.T) {
	cl, srv, _ := newHERD(t, durableConfig(DurabilityGroupCommit), 1)
	first, last := kv.FromUint64(1), kv.FromUint64(2)
	if err := srv.Preload(first, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := srv.Preload(kv.FromUint64(3), make([]byte, 70000)); !errors.Is(err, mica.ErrValueTooLarge) {
		t.Fatalf("oversized preload: err=%v, want %v", err, mica.ErrValueTooLarge)
	}
	if err := srv.Preload(kv.Key{}, []byte("zero")); !errors.Is(err, mica.ErrZeroKey) {
		t.Fatalf("zero-key preload: err=%v, want %v", err, mica.ErrZeroKey)
	}
	if err := srv.Preload(last, []byte("last")); err != nil {
		t.Fatal(err)
	}
	if n := srv.WAL().Appends(); n != 2 {
		t.Fatalf("WAL appends = %d, want 2 (the accepted preloads only)", n)
	}
	srv.Crash()
	srv.Restart()
	cl.Eng.Run()
	if rec := srv.LastRecovery(); !rec.Warm || rec.TornBytes != 0 {
		t.Fatalf("recovery %+v, want warm with 0 torn bytes", rec)
	}
	for key, want := range map[kv.Key]string{first: "first", last: "last"} {
		if v, ok := lookup(srv, key); !ok || string(v) != want {
			t.Fatalf("key %v after warm restart: value=%q ok=%v, want %q", key, v, ok, want)
		}
	}
}

// TestStalePreloadNotLogged: on a versioned server, a run-time preload
// whose stamp does not outrank the stored one applies at once, is
// refused and never reaches the WAL. At instant zero, where preloads
// queue in mica's bulk load and the stamp is decided only when the
// batch settles, each preload is logged as it is made, and replay
// refuses the stale ones again. A warm restart restores the newest
// value.
func TestStalePreloadNotLogged(t *testing.T) {
	cfg := durableConfig(DurabilityGroupCommit)
	cfg.VersionedValues = true
	cl, srv, clients := newHERD(t, cfg, 1)
	key := kv.FromUint64(7)
	if err := srv.Preload(key, stamped(2, 1, "v2")); err != nil {
		t.Fatal(err)
	}
	if recs := srv.WALRecordsSince(0); len(recs) != 1 {
		t.Fatalf("WAL holds %d records after one preload, want 1", len(recs))
	}
	logged := srv.WAL().Appends()
	for _, stale := range [][]byte{stamped(1, 9, "older"), stamped(2, 1, "same stamp")} {
		if err := srv.Preload(key, stale); err != nil {
			t.Fatal(err)
		}
		logged++
		if n := srv.WAL().Appends(); n != logged {
			t.Fatalf("instant zero: stale preload %q not logged (appends %d, want %d)", stale, n, logged)
		}
	}
	// Run an event, so later preloads apply at once.
	var res Result
	if err := clients[0].Put(kv.FromUint64(8), stamped(1, 1, "other"), func(r Result) { res = r }); err != nil {
		t.Fatal(err)
	}
	cl.Eng.Run()
	if res.Status != kv.StatusHit {
		t.Fatalf("PUT: %+v", res)
	}
	logged = srv.WAL().Appends()
	if err := srv.Preload(key, stamped(1, 1, "older")); err != nil {
		t.Fatal(err)
	}
	if n := srv.WAL().Appends(); n != logged {
		t.Fatalf("run time: stale preload logged (appends %d, want %d)", n, logged)
	}
	if err := srv.Preload(key, stamped(3, 1, "v3")); err != nil {
		t.Fatal(err)
	}
	if n := srv.WAL().Appends(); n != logged+1 {
		t.Fatalf("run time: newer preload not logged (appends %d, want %d)", n, logged+1)
	}
	srv.Crash()
	srv.Restart()
	cl.Eng.Run()
	if v, ok := lookup(srv, key); !ok || !bytes.Equal(v, stamped(3, 1, "v3")) {
		t.Fatalf("after warm restart: value=%q ok=%v, want the newest preload", v, ok)
	}
}

// TestQueuedPreloadIsStartingImage: versioned preloads made at instant
// zero are logged as the WAL's starting image even when their batch
// settles only at the first PUT, after events have run: stamped instant
// zero, logged before the PUT, and no cause of compaction, however
// many SnapshotEvery they span. A warm restart restores them all.
func TestQueuedPreloadIsStartingImage(t *testing.T) {
	const keys = 200 // over a 32-insert batch per partition, and not a multiple
	cfg := durableConfig(DurabilityGroupCommit)
	cfg.VersionedValues = true
	cfg.WAL.SnapshotEvery = 1024
	cl, srv, clients := newHERD(t, cfg, 1)
	for k := uint64(1); k <= keys; k++ {
		if err := srv.Preload(kv.FromUint64(k), stamped(1, k, "preloaded")); err != nil {
			t.Fatal(err)
		}
	}
	var res Result
	cl.Eng.After(sim.Microsecond, func() {
		if err := clients[0].Put(kv.FromUint64(keys+1), stamped(1, 1, "run-time"), func(r Result) { res = r }); err != nil {
			t.Fatal(err)
		}
	})
	cl.Eng.Run()
	if res.Status != kv.StatusHit {
		t.Fatalf("PUT: %+v", res)
	}
	recs := srv.WALRecordsSince(0)
	if len(recs) != keys+1 {
		t.Fatalf("WAL holds %d records, want the %d preloads and the PUT", len(recs), keys)
	}
	for i, r := range recs[:keys] {
		if r.At != 0 {
			t.Fatalf("preload record %d logged at %v, want instant zero", i, r.At)
		}
	}
	if last := recs[keys]; last.Key != kv.FromUint64(keys+1) || last.At == 0 {
		t.Fatalf("last record %+v, want the run-time PUT", last)
	}
	if n := srv.WAL().Snapshots(); n != 0 {
		t.Fatalf("%d snapshots: the starting image counted as log growth", n)
	}
	srv.Crash()
	srv.Restart()
	cl.Eng.Run()
	for k := uint64(1); k <= keys; k++ {
		if v, ok := lookup(srv, kv.FromUint64(k)); !ok || !bytes.Equal(v, stamped(1, k, "preloaded")) {
			t.Fatalf("key %d after warm restart: value=%q ok=%v", k, v, ok)
		}
	}
}

// TestImageReplayMatchesPreload: versioned preloads made at instant
// zero are logged as they are made, stale stamps included, and the
// warm restart's replay re-runs the same bulk loads in the same order.
// Over several partitions and more than one bulk-load batch each, with
// newer-then-older and equal-stamp duplicates both inside one batch and
// across batches, the restarted server must hold exactly the pre-crash
// state: every partition's Range, in order, and every key's Get.
func TestImageReplayMatchesPreload(t *testing.T) {
	const keys = 300 // about 75 per partition: past two 32-insert batches
	cfg := durableConfig(DurabilityGroupCommit)
	cfg.VersionedValues = true
	cl, srv, _ := newHERD(t, cfg, 1)
	preloads := 0
	preload := func(k uint64, value []byte) {
		t.Helper()
		if err := srv.Preload(kv.FromUint64(k), value); err != nil {
			t.Fatal(err)
		}
		preloads++
	}
	for k := uint64(1); k <= keys; k++ {
		preload(k, stamped(1, 10, "base"))
		if k%4 == 0 {
			preload(k, stamped(1, 20, "newer"))
			preload(k, stamped(1, 5, "older"))
		}
		if k%5 == 0 {
			preload(k, stamped(1, 10, "equal stamp"))
		}
	}
	for k := uint64(6); k <= keys; k += 6 {
		preload(k, stamped(2, 1, "later epoch"))
		preload(k, stamped(1, 30, "older epoch"))
		preload(k, stamped(2, 1, "same stamp"))
	}
	if n := srv.WAL().Appends(); n != uint64(preloads) {
		t.Fatalf("WAL appends = %d, want every one of the %d preloads", n, preloads)
	}
	snapshot := func() (ranges [][][]byte, gets [][]byte) {
		for i := 0; i < cfg.NS; i++ {
			var r [][]byte
			srv.Partition(i).Range(func(key kv.Key, value []byte) bool {
				r = append(r, bytes.Clone(key[:]), bytes.Clone(value))
				return true
			})
			ranges = append(ranges, r)
		}
		for k := uint64(1); k <= keys; k++ {
			v, ok := lookup(srv, kv.FromUint64(k))
			if !ok {
				t.Fatalf("key %d missing", k)
			}
			gets = append(gets, bytes.Clone(v))
		}
		return ranges, gets
	}
	wantRanges, wantGets := snapshot()
	for k, want := range map[uint64][]byte{
		1:  stamped(1, 10, "base"),
		4:  stamped(1, 20, "newer"),
		5:  stamped(1, 10, "base"),
		12: stamped(2, 1, "later epoch"),
	} {
		if got := wantGets[k-1]; !bytes.Equal(got, want) {
			t.Fatalf("key %d before the crash = %q, want %q", k, got, want)
		}
	}
	srv.Crash()
	srv.Restart()
	cl.Eng.Run()
	if rec := srv.LastRecovery(); !rec.Warm || rec.Replayed+rec.SnapshotRecords != preloads {
		t.Fatalf("recovery %+v, want a warm replay of the %d logged preloads", rec, preloads)
	}
	gotRanges, gotGets := snapshot()
	for i := range wantRanges {
		if !slices.EqualFunc(gotRanges[i], wantRanges[i], bytes.Equal) {
			t.Fatalf("partition %d: Range after the warm restart differs from before the crash", i)
		}
	}
	for i := range wantGets {
		if !bytes.Equal(gotGets[i], wantGets[i]) {
			t.Fatalf("key %d after the warm restart = %q, want %q", i+1, gotGets[i], wantGets[i])
		}
	}
}

func TestCrashWipesPartitionsWithoutDurability(t *testing.T) {
	_, srv, _ := newHERD(t, smallConfig(), 1)
	key := kv.FromUint64(3)
	if err := srv.Preload(key, []byte("volatile")); err != nil {
		t.Fatal(err)
	}
	srv.Crash()
	srv.Restart()
	if srv.Down() {
		t.Fatal("cold restart should be immediate")
	}
	if _, ok := lookup(srv, key); ok {
		t.Fatal("DRAM partitions survived a crash with durability off")
	}
	if rec := srv.LastRecovery(); rec.Warm || rec.Duration != 0 {
		t.Fatalf("cold restart recorded as %+v", rec)
	}
}

// TestSyncHoldsAckUntilDurable: with DurabilitySync a PUT's response
// waits for its log record's group commit, so the persist latency is
// visible in the client's measured op latency.
func TestSyncHoldsAckUntilDurable(t *testing.T) {
	const persist = 20 * sim.Microsecond
	latency := func(mode Durability) sim.Time {
		cfg := durableConfig(mode)
		cfg.WAL = wal.Config{PersistLatency: persist}
		cl, srv, clients := newHERD(t, cfg, 1)
		var res Result
		clients[0].Put(kv.FromUint64(1), []byte("v"), func(r Result) { res = r })
		cl.Eng.Run()
		if res.Status != kv.StatusHit {
			t.Fatalf("PUT under mode %d failed: %+v", mode, res)
		}
		if srv.WAL().Appends() == 0 {
			t.Fatalf("mode %d logged nothing", mode)
		}
		return res.Latency
	}
	syncLat := latency(DurabilitySync)
	gcLat := latency(DurabilityGroupCommit)
	if syncLat < persist {
		t.Fatalf("sync PUT latency %v does not cover the %v persist", syncLat, persist)
	}
	if gcLat >= persist {
		t.Fatalf("group-commit PUT latency %v waited for the persist", gcLat)
	}
}

// TestWarmRestartReplaysClientWrites drives real client PUTs, crashes
// after they are durable, and checks the warm restart replays them and
// keeps the epoch monotonic.
func TestWarmRestartReplaysClientWrites(t *testing.T) {
	cl, srv, clients := newHERD(t, durableConfig(DurabilityGroupCommit), 1)
	c := clients[0]
	const n = 16
	for i := uint64(0); i < n; i++ {
		i := i
		cl.Eng.At(sim.Time(i)*2*sim.Microsecond, func() {
			c.Put(kv.FromUint64(i), []byte{byte(i)}, func(Result) {})
		})
	}
	cl.Eng.Run() // all writes served and group-committed
	srv.Crash()
	srv.Restart()
	if !srv.recovering {
		t.Fatal("warm restart did not enter recovery")
	}
	if !srv.Down() {
		t.Fatal("server accepted requests mid-replay")
	}
	cl.Eng.Run()
	rec := srv.LastRecovery()
	if !rec.Warm || rec.Duration <= 0 {
		t.Fatalf("recovery = %+v, want a warm one with a real outage", rec)
	}
	if got := srv.WAL().Replayed(); got < n {
		t.Fatalf("replayed %d records, want >= %d", got, n)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := lookup(srv, kv.FromUint64(i)); !ok || !bytes.Equal(v, []byte{byte(i)}) {
			t.Fatalf("key %d after replay: value=%v ok=%v", i, v, ok)
		}
	}
}

// TestCrashMidFlushTruncatesTornTail: a flushcrash-style CrashMidFlush
// leaves a torn tail that the warm restart truncates — replay applies
// only clean records, never a damaged one.
func TestCrashMidFlushTruncatesTornTail(t *testing.T) {
	cl, srv, clients := newHERD(t, durableConfig(DurabilityGroupCommit), 1)
	c := clients[0]
	for i := uint64(0); i < 8; i++ {
		i := i
		cl.Eng.At(sim.Time(i)*sim.Microsecond, func() {
			c.Put(kv.FromUint64(i), []byte{byte(i)}, func(Result) {})
		})
	}
	// Crash while late writes are still pending in the WAL (before the
	// 5us default flush interval catches the tail).
	cl.Eng.At(9*sim.Microsecond, func() { srv.CrashMidFlush() })
	cl.Eng.Run()
	srv.Restart()
	cl.Eng.Run()
	rec := srv.LastRecovery()
	if !rec.Warm {
		t.Fatal("restart was not warm")
	}
	if rec.TornBytes == 0 {
		t.Fatal("mid-flush crash left no torn tail")
	}
	// Every surviving key must carry its exact written value: a torn
	// record is dropped whole, never applied damaged.
	for i := uint64(0); i < 8; i++ {
		if v, ok := lookup(srv, kv.FromUint64(i)); ok && !bytes.Equal(v, []byte{byte(i)}) {
			t.Fatalf("key %d replayed damaged value %v", i, v)
		}
	}
}

func TestRecoveryHookFires(t *testing.T) {
	cl, srv, _ := newHERD(t, durableConfig(DurabilityGroupCommit), 1)
	if err := srv.Preload(kv.FromUint64(1), []byte("v")); err != nil {
		t.Fatal(err)
	}
	var got []RecoveryInfo
	srv.SetRecoveryHook(func(info RecoveryInfo) { got = append(got, info) })
	srv.Crash()
	srv.Restart()
	cl.Eng.Run()
	if len(got) != 1 || !got[0].Warm {
		t.Fatalf("recovery hook calls = %+v, want one warm recovery", got)
	}
}
