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

// BenchmarkLoad compares the ways to bulk-load a partition sized like
// one of the herd-read bench's six: 128 Ki buckets × 8 slots and a log
// twice the size of its 174,763 32-byte items. Each op inserts one
// fresh key; a full partition is replaced, untimed, by an empty one.
// put is one Put per key, load is Load, which overlaps each batch's
// bucket misses; putnewer and loadnewer are their ordered forms, for
// the version-stamped values a versioned server stores.
func BenchmarkLoad(b *testing.B) {
	const keys = (1<<20 + 5) / 6
	cfg := Config{IndexBuckets: 1 << 17, BucketSlots: 8, LogBytes: keys * (entryHeader + 32) * 2}
	putNewer := func(c *Cache, k Key, v []byte) error {
		_, err := c.PutNewer(k, v)
		return err
	}
	for _, bc := range []struct {
		name   string
		insert func(*Cache, Key, []byte) error
	}{{"put", (*Cache).Put}, {"load", (*Cache).Load}, {"putnewer", putNewer}, {"loadnewer", (*Cache).LoadNewer}} {
		b.Run(bc.name, func(b *testing.B) {
			val := kv.AppendVersion(nil, kv.Version{Epoch: 1, Seq: 1}, false)
			val = append(val, make([]byte, 32-len(val))...)
			var c *Cache
			for i := 0; i < b.N; i++ {
				k := uint64(i % keys)
				if k == 0 {
					if c != nil {
						c.Stats() // wait for the full partition's loads
					}
					b.StopTimer()
					c = New(cfg)
					b.StartTimer()
				}
				if err := bc.insert(c, kv.FromUint64(k), val); err != nil {
					b.Fatal(err)
				}
			}
			c.Stats() // settle the last batch inside the timer
		})
	}
}
