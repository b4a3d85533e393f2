package mica

import (
	"testing"

	"herdkv/internal/kv"
	"herdkv/internal/lint/hotalloc/hotgate"
)

// TestHotpathAllocFree is the CI gate behind the hotalloc analyzer:
// every //herd:hotpath function in this package must measure 0
// allocs/op. The index slots and circular log are preallocated in New,
// so the whole GET/PUT/DELETE chain runs without touching the heap.
func TestHotpathAllocFree(t *testing.T) {
	c := New(DefaultConfig())
	key := kv.FromUint64(42)
	val := []byte("hot-value")
	if err := c.Put(key, val); err != nil {
		t.Fatal(err)
	}
	h := hash64(key)
	hotgate.Check(t, ".", map[string]func(){
		"hash64":         func() { _ = hash64(key) },
		"Partition":      func() { _ = Partition(key, 6) },
		"Cache.bucketOf": func() { _, _ = c.bucketOf(h) },
		"Cache.entryAt":  func() { _, _ = c.entryAt(0, key) },
		"Cache.Get":      func() { _, _ = c.Get(key) },
		"Cache.append":   func() { _ = c.append(key, val) },
		"Cache.Put":      func() { _ = c.Put(key, val) },
		"Cache.Delete":   func() { _ = c.Delete(key) },
	})
}
