package mica

import (
	"testing"

	"herdkv/internal/kv"
	"herdkv/internal/lint/hotalloc/hotgate"
)

// TestHotpathAllocFree is the CI gate behind the hotalloc analyzer:
// every //herd:hotpath function in this package must measure 0
// allocs/op. The index slots are preallocated in New and the log
// commits each segment the first time the append head reaches it, so
// the gates run on a partition whose log has already wrapped once:
// from then on the whole GET/PUT/DELETE chain reuses committed
// segments without touching the heap. Load on that log falls back to
// Put, so Load's batched path and settle run on a second partition
// whose first segment is committed and has room for every gate run.
func TestHotpathAllocFree(t *testing.T) {
	c := New(Config{IndexBuckets: 1 << 10, BucketSlots: 8, LogBytes: 4*segStride + 4096})
	fill := make([]byte, MaxValueSize)
	for i := uint64(1); c.head < uint64(c.cfg.LogBytes); i++ {
		if err := c.Put(kv.FromUint64(i<<32), fill); err != nil {
			t.Fatal(err)
		}
	}
	key := kv.FromUint64(42)
	val := []byte("hot-value")
	if err := c.Put(key, val); err != nil {
		t.Fatal(err)
	}
	off := c.head - uint64(entryHeader+len(val))
	h := hash64(key)
	s := makeSlot(7, 42)
	base, tag := c.bucketOf(h)
	fresh := New(Config{IndexBuckets: 1 << 10, BucketSlots: 8, LogBytes: 1 << 20})
	if err := fresh.Load(key, val); err != nil {
		t.Fatal(err)
	}
	hotgate.Check(t, ".", map[string]func(){
		"hash64":         func() { _ = hash64(key) },
		"Partition":      func() { _ = Partition(key, 6) },
		"makeSlot":       func() { _ = makeSlot(7, 42) },
		"slot.used":      func() { _ = s.used() },
		"slot.tag":       func() { _ = s.tag() },
		"slot.off":       func() { _ = s.off() },
		"Cache.bucketOf": func() { _, _ = c.bucketOf(h) },
		"Cache.entry":    func() { _, _, _ = c.entry(off) },
		"Cache.Get":      func() { _, _ = c.Get(key) },
		"Cache.append":   func() { _ = c.append(key, val) },
		"Cache.Put":      func() { _ = c.Put(key, val) },
		"Cache.slotFor":  func() { _ = c.slotFor(base, tag, key) },
		"Cache.Load":     func() { _ = fresh.Load(key, val) },
		"Cache.settle":   func() { _ = fresh.Load(key, val); fresh.settle() },
	})
}
