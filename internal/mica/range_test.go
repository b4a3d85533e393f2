package mica

import (
	"bytes"
	"fmt"
	"testing"

	"herdkv/internal/kv"
	"herdkv/internal/sim"
)

// Range now underpins both fleet migration and WAL snapshotting, so its
// determinism is a correctness property: two replicas (or two runs of
// one chaos replay) walking identical partitions must emit identical
// sequences, or snapshots and migrations would diverge across -count=2.

// buildCache applies a seeded Put history and returns the cache.
func buildCache(seed int64, ops int, cfg Config) *Cache {
	c := New(cfg)
	rnd := sim.NewRand(seed)
	for i := 0; i < ops; i++ {
		k := kv.FromUint64(uint64(rnd.Intn(ops/2 + 1)))
		_ = c.Put(k, []byte(fmt.Sprintf("v%d", i)))
	}
	return c
}

// collect drains Range into a flat byte transcript (key + value per
// entry), cloning values since they alias the log.
func collect(c *Cache) []byte {
	var out []byte
	c.Range(func(key Key, value []byte) bool {
		out = append(out, key[:]...)
		out = append(out, value...)
		return true
	})
	return out
}

func TestRangeDeterministicAcrossIdenticalHistories(t *testing.T) {
	cfg := Config{IndexBuckets: 1 << 8, BucketSlots: 8, LogBytes: 1 << 18}
	a := collect(buildCache(7, 2000, cfg))
	b := collect(buildCache(7, 2000, cfg))
	if len(a) == 0 {
		t.Fatal("empty Range transcript")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("identical histories produced different Range sequences")
	}
	if c := collect(buildCache(8, 2000, cfg)); bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical Range sequences (suspicious)")
	}
}

// TestRangeMatchesGet: every entry Range yields must be live — the
// exact value Get returns — and every Get-able key must appear exactly
// once. Wrapped (evicted-by-log) entries are skipped, never emitted
// damaged.
func TestRangeMatchesGet(t *testing.T) {
	// A small log forces circular-log wraparound: early entries are
	// overwritten and their index slots left dangling.
	cfg := Config{IndexBuckets: 1 << 8, BucketSlots: 8, LogBytes: 8 << 10}
	c := buildCache(11, 4000, cfg)
	seen := map[Key]int{}
	c.Range(func(key Key, value []byte) bool {
		seen[key]++
		want, ok := c.Get(key)
		if !ok || !bytes.Equal(value, want) {
			t.Fatalf("Range emitted key %v value %q, Get says %q ok=%v", key, value, want, ok)
		}
		return true
	})
	for key, n := range seen {
		if n != 1 {
			t.Fatalf("key %v emitted %d times", key, n)
		}
	}
	if len(seen) == 0 {
		t.Fatal("Range emitted nothing")
	}
}

// TestRangeWithInterleavedMutation: a Put landing between
// Range callbacks (the WAL snapshot walk interleaves with served
// writes in sim time) must not corrupt the walk — entries emitted
// afterward are still well-formed.
func TestRangeWithInterleavedMutation(t *testing.T) {
	cfg := Config{IndexBuckets: 1 << 8, BucketSlots: 8, LogBytes: 1 << 18}
	c := buildCache(13, 1000, cfg)
	i := 0
	c.Range(func(key Key, value []byte) bool {
		// Mutate mid-walk: overwrite this key and insert a fresh one.
		_ = c.Put(key, []byte("rewritten"))
		_ = c.Put(kv.FromUint64(uint64(90000+i)), []byte("fresh"))
		i++
		if len(value) > MaxValueSize {
			t.Fatalf("mid-mutation Range emitted oversized value (%d bytes)", len(value))
		}
		return i < 200
	})
	if i == 0 {
		t.Fatal("Range emitted nothing")
	}
}

func TestRangeStopsEarly(t *testing.T) {
	cfg := Config{IndexBuckets: 1 << 8, BucketSlots: 8, LogBytes: 1 << 18}
	c := buildCache(17, 500, cfg)
	calls := 0
	c.Range(func(Key, []byte) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Fatalf("Range called fn %d times after a false return", calls)
	}
}
