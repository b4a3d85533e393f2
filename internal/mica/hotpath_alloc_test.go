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
// segments without touching the heap. A load on that log falls back to
// put, so the loader's batched path and settle run on a second
// partition whose first segment is committed and has room for every
// gate run. Load, LoadNewer and handOff copy into a third partition's
// handoff batch, which the gate runs never fill, so they start no
// loader goroutine: a partition allocates two batches a bulk load, and
// a channel and a goroutine per handoffBytes of loads. The ordered
// gates store a stamp one higher each run, so each run's PutNewer and
// LoadNewer are accepted, and settle's ordered branch runs a batch
// whose refused stale stamp the accepted entry after it moves down
// over.
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
	fresh.load(key, val, false)
	fresh.settle()
	handed := New(Config{IndexBuckets: 1 << 10, BucketSlots: 8, LogBytes: 1 << 20})
	if err := handed.Load(key, val); err != nil {
		t.Fatal(err)
	}
	one := new(handoff)
	one.n = copy(one.buf[:], handed.loads.buf[:handed.loads.n])
	batch := new(handoff)
	seq := uint64(1)
	stamped := kv.AppendVersion(nil, kv.Version{Epoch: 1, Seq: seq}, false)
	stamped = append(stamped, "stamped-value"...)
	stale := kv.AppendVersion(nil, kv.Version{}, false)
	newer := func() []byte {
		seq++
		kv.AppendVersion(stamped[:0], kv.Version{Epoch: 1, Seq: seq}, false)
		return stamped
	}
	vkey := kv.FromUint64(43)
	if err := c.Put(vkey, newer()); err != nil {
		t.Fatal(err)
	}
	hotgate.Check(t, ".", map[string]func(){
		"hash64":          func() { _ = hash64(key) },
		"Partition":       func() { _ = Partition(key, 6) },
		"makeSlot":        func() { _ = makeSlot(7, 42) },
		"slot.used":       func() { _ = s.used() },
		"slot.tag":        func() { _ = s.tag() },
		"slot.off":        func() { _ = s.off() },
		"Cache.bucketOf":  func() { _, _ = c.bucketOf(h) },
		"Cache.entry":     func() { _, _, _ = c.entry(off) },
		"Cache.Get":       func() { _, _ = c.Get(key) },
		"Cache.append":    func() { _ = c.append(key, val) },
		"Cache.Put":       func() { _ = c.Put(key, val) },
		"Cache.slotFor":   func() { _ = c.slotFor(base, tag, key) },
		"Cache.victim":    func() { _ = c.victim(base) },
		"Cache.slotNewer": func() { _ = c.slotNewer(base, tag, vkey, stale) },
		"Cache.PutNewer":  func() { _, _ = c.PutNewer(vkey, newer()) },
		"Cache.put":       func() { c.put(key, val) },
		"Cache.putNewer":  func() { _ = c.putNewer(vkey, newer()) },
		"Cache.Load":      func() { _ = handed.Load(key, val) },
		"Cache.LoadNewer": func() { _ = handed.LoadNewer(vkey, newer()) },
		"Cache.handOff":   func() { handed.handOff(key, val, 0) },
		"Cache.apply":     func() { fresh.apply(one) },
		"Cache.await": func() {
			*batch = *one
			fresh.loads = batch
			fresh.await()
		},
		"Cache.load": func() { fresh.load(vkey, newer(), true) },
		"Cache.settle": func() {
			fresh.load(key, val, false)
			fresh.load(vkey, stale, true)
			fresh.load(vkey, newer(), true)
			fresh.settle()
		},
		"Cache.moveEntry":   func() { fresh.moveEntry(0, 0, entryHeader) },
		"Cache.queuedBytes": func() { _ = fresh.queuedBytes(fresh.queue[:2], 0) },
	})
}
