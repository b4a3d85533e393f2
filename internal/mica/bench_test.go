package mica

import (
	"testing"

	"herdkv/internal/kv"
)

// Wall-clock benchmarks of the actual Go data structure (distinct from
// the simulated-time experiments): these measure what this
// implementation costs on the host running the tests.

func benchCache(b *testing.B) *Cache {
	b.Helper()
	c := New(Config{IndexBuckets: 1 << 16, BucketSlots: 8, LogBytes: 1 << 26})
	for i := uint64(0); i < 1<<15; i++ {
		if err := c.Put(kv.FromUint64(i), make([]byte, 32)); err != nil {
			b.Fatal(err)
		}
	}
	return c
}

func BenchmarkGetHit(b *testing.B) {
	c := benchCache(b)
	keys := make([]Key, 1024)
	for i := range keys {
		keys[i] = kv.FromUint64(uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(keys[i&1023]); !ok {
			b.Fatal("unexpected miss")
		}
	}
}

func BenchmarkGetMiss(b *testing.B) {
	c := benchCache(b)
	keys := make([]Key, 1024)
	for i := range keys {
		keys[i] = kv.FromUint64(uint64(i) + 1<<40)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(keys[i&1023])
	}
}

func BenchmarkPut32(b *testing.B) {
	c := benchCache(b)
	val := make([]byte, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Put(kv.FromUint64(uint64(i)&0xffff), val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPut1000(b *testing.B) {
	c := New(Config{IndexBuckets: 1 << 12, BucketSlots: 8, LogBytes: 1 << 26})
	val := make([]byte, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Put(kv.FromUint64(uint64(i)&0xfff), val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPutWrapped measures PUT once the log has wrapped: the small
// log is filled past its capacity before the timer starts, so every
// timed append lands in a segment committed on an earlier lap.
func BenchmarkPutWrapped(b *testing.B) {
	c := New(Config{IndexBuckets: 1 << 12, BucketSlots: 8, LogBytes: 1 << 20})
	val := make([]byte, 32)
	i := uint64(0)
	for ; c.head < 2<<20; i++ {
		if err := c.Put(kv.FromUint64(i&0xfff), val); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if err := c.Put(kv.FromUint64((i+uint64(n))&0xfff), val); err != nil {
			b.Fatal(err)
		}
	}
}
