package mica

import (
	"runtime"
	"testing"
	"unsafe"

	"herdkv/internal/kv"
)

// TestIndexFootprint bounds what an index bucket costs the host: the
// live heap a partition grows by per bucket, less its committed log,
// once loaded as the herd-read bench loads one of its six partitions
// (128 Ki buckets, about 1.33 keys each). A bucket is a 32-byte record
// that keeps three slots inline, and the 4.6% of buckets that hold
// more spill to 64-byte blocks in an arena that grows by a quarter.
// 40 bytes leaves room for that spill and fails a layout that stores
// every bucket as the 8-slot line it models (65 bytes a bucket with
// its victim byte).
func TestIndexFootprint(t *testing.T) {
	if n := unsafe.Sizeof(bucket{}); n != 32 {
		t.Fatalf("a bucket record is %d bytes, want 32", n)
	}
	const (
		buckets = 1 << 17
		keys    = (1<<20 + 5) / 6
	)
	val := make([]byte, 8)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := New(Config{IndexBuckets: buckets, BucketSlots: 8, LogBytes: keys * (entryHeader + len(val)) * 2})
	for i := uint64(1); i <= keys; i++ {
		if err := c.Load(kv.FromUint64(i), val); err != nil {
			t.Fatal(err)
		}
	}
	c.Stats() // wait for the loader
	runtime.GC()
	runtime.ReadMemStats(&after)
	log, _ := committed(c)
	table := len(c.segs) * int(unsafe.Sizeof([]byte(nil)))
	perBucket := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)-int64(log+table)) / buckets
	runtime.KeepAlive(c)
	spilled := 0
	for i := range c.buckets {
		if c.buckets[i].spill != 0 {
			spilled++
		}
	}
	t.Logf("%.1f B of live heap per bucket over %d buckets, %.1f%% spilled", perBucket, buckets, 100*float64(spilled)/buckets)
	if perBucket > 40 {
		t.Fatalf("%.1f B of live heap per bucket, want at most 40", perBucket)
	}
}
