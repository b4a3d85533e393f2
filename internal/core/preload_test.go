package core

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"herdkv/internal/cluster"
	"herdkv/internal/kv"
	"herdkv/internal/mica"
	"herdkv/internal/workload"
)

// newPreloadServer builds a one-machine server with cfg.
func newPreloadServer(tb testing.TB, cfg Config) *Server {
	tb.Helper()
	srv, err := NewServer(cluster.New(cluster.Apt(), 1, 1).Machine(0), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return srv
}

// preloadKeys preloads keys 0 to keys-1 into srv, each with its
// 32-byte workload.ExpectedValue.
func preloadKeys(tb testing.TB, srv *Server, keys uint64) {
	tb.Helper()
	val := make([]byte, 0, 32)
	for k := uint64(0); k < keys; k++ {
		key := kv.FromUint64(k)
		val = workload.AppendExpectedValue(val[:0], key, 32)
		if err := srv.Preload(key, val); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestPreloadLeavesNoLoader: a partition's bulk-load loader goroutines
// live only as long as their batches. After a preload and a barrier on
// every partition (a Stats read) no loader is left and the goroutine
// count is back at its baseline, and so it is after a preloaded server
// nothing read is dropped. The baseline is taken once no loader from an
// earlier test is left; the count may end below it, as a goroutine an
// earlier test started (a timer's, a finalizer's) may exit meanwhile.
func TestPreloadLeavesNoLoader(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mica = mica.Config{IndexBuckets: 1 << 12, BucketSlots: 8, LogBytes: 1 << 22}
	const keys = 1 << 16 // about 17 handoff batches a partition
	awaitLoaders(t, -1, "before the test")
	base := runtime.NumGoroutine()
	srv := newPreloadServer(t, cfg)
	preloadKeys(t, srv, keys)
	for p := range cfg.NS {
		srv.Partition(p).Stats()
	}
	awaitLoaders(t, base, "after a barrier on every partition")
	preloadKeys(t, newPreloadServer(t, cfg), keys)
	awaitLoaders(t, base, "after dropping a preloaded server nothing read")
}

// TestMidRunPreloadAllocFree: once events have run, a preload is one
// key between reads (the fleet's merge reads every replica, then
// preloads onto the stale ones), so it must not start a bulk-load
// handoff batch for that key. A Preload and a Get of the key, in turn,
// allocate nothing, with plain and with versioned values.
func TestMidRunPreloadAllocFree(t *testing.T) {
	for _, versioned := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Mica = mica.Config{IndexBuckets: 1 << 10, BucketSlots: 8, LogBytes: 1 << 20}
		cfg.VersionedValues = versioned
		srv := newPreloadServer(t, cfg)
		eng := srv.machine.Verbs.NIC().Engine()
		eng.After(1, func() {})
		eng.RunFor(1)
		if eng.Processed() == 0 {
			t.Fatal("no event ran")
		}
		key := kv.FromUint64(7)
		part := srv.Partition(mica.Partition(key, cfg.NS))
		val := make([]byte, 32)
		seq := uint64(0)
		allocs := testing.AllocsPerRun(100, func() {
			seq++
			kv.AppendVersion(val[:0], kv.Version{Epoch: 1, Seq: seq}, false)
			if err := srv.Preload(key, val); err != nil {
				t.Fatal(err)
			}
			part.Get(key)
		})
		if allocs != 0 {
			t.Fatalf("versioned %v: a mid-run Preload and Get made %v allocs, want 0", versioned, allocs)
		}
	}
}

// awaitLoaders fails t unless, within a few seconds, no loader
// goroutine is alive and (for a base of 0 or more) the goroutine count
// is at most base: a loader exits just after it closes its channel.
func awaitLoaders(t *testing.T, base int, when string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		stacks := buf[:runtime.Stack(buf, true)]
		loaders := bytes.Count(stacks, []byte("mica.(*Cache).loader("))
		n := runtime.NumGoroutine()
		if loaders == 0 && (base < 0 || n <= base) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d of them loaders; want at most the baseline %d and no loader", when, n, loaders, base)
		}
	}
}

// BenchmarkPreload measures Server.Preload on the host, on a server
// sized like the herd-read bench workload's: 1 Mi keys of 32-byte
// values over six partitions of 128 Ki buckets × 8 slots, each log
// twice its share. One op builds a server untimed, then loads every
// key and reads each partition's Stats, the bulk-load barrier, so loads
// still in flight are timed too. It reports ns/key.
func BenchmarkPreload(b *testing.B) {
	const keys = 1 << 20
	cfg := DefaultConfig()
	cfg.Mica = mica.Config{IndexBuckets: 1 << 17, BucketSlots: 8, LogBytes: keys * (18 + 32) * 2 / cfg.NS}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv := newPreloadServer(b, cfg)
		b.StartTimer()
		preloadKeys(b, srv, keys)
		for p := range cfg.NS {
			srv.Partition(p).Stats()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*keys), "ns/key")
}
