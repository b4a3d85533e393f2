package mica

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// keyOf produces well-mixed 16-byte keyhashes (splitmix64 finalizer), as
// a real client would by hashing its key.
func keyOf(n uint64) Key {
	mix := func(z uint64) uint64 {
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	var k Key
	binary.LittleEndian.PutUint64(k[:8], mix(n)|1) // never zero
	binary.LittleEndian.PutUint64(k[8:], mix(n+0x9e3779b97f4a7c15))
	return k
}

func TestPutGetRoundTrip(t *testing.T) {
	c := New(DefaultConfig())
	k := keyOf(1)
	if err := c.Put(k, []byte("value-1")); err != nil {
		t.Fatal(err)
	}
	v, ok := c.Get(k)
	if !ok || string(v) != "value-1" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
}

func TestGetMissing(t *testing.T) {
	c := New(DefaultConfig())
	if _, ok := c.Get(keyOf(99)); ok {
		t.Fatal("missing key reported present")
	}
}

func TestUpdateReplacesValue(t *testing.T) {
	c := New(DefaultConfig())
	k := keyOf(2)
	c.Put(k, []byte("old"))
	c.Put(k, []byte("new value"))
	v, ok := c.Get(k)
	if !ok || string(v) != "new value" {
		t.Fatalf("Get after update = %q, %v", v, ok)
	}
}

func TestZeroKeyRejected(t *testing.T) {
	c := New(DefaultConfig())
	if err := c.Put(Key{}, []byte("x")); err != ErrZeroKey {
		t.Fatalf("Put zero key: %v", err)
	}
	if _, ok := c.Get(Key{}); ok {
		t.Fatal("Get zero key should miss")
	}
}

func TestValueSizeLimit(t *testing.T) {
	c := New(DefaultConfig())
	if err := c.Put(keyOf(1), make([]byte, MaxValueSize+1)); err != ErrValueTooLarge {
		t.Fatalf("oversized Put: %v", err)
	}
	if err := c.Put(keyOf(1), make([]byte, MaxValueSize)); err != nil {
		t.Fatalf("max-sized Put: %v", err)
	}
}

func TestEmptyValue(t *testing.T) {
	c := New(DefaultConfig())
	k := keyOf(3)
	c.Put(k, nil)
	v, ok := c.Get(k)
	if !ok || len(v) != 0 {
		t.Fatalf("empty value Get = %v, %v", v, ok)
	}
}

func TestLossyIndexEviction(t *testing.T) {
	// A tiny index: overfilling one bucket must evict, not fail.
	cfg := Config{IndexBuckets: 1, BucketSlots: 2, LogBytes: 1 << 20}
	c := New(cfg)
	for i := uint64(0); i < 10; i++ {
		if err := c.Put(keyOf(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats().IndexEvictions == 0 {
		t.Fatal("expected index evictions in a full bucket")
	}
	// The most recently inserted key must be retrievable.
	v, ok := c.Get(keyOf(9))
	if !ok || v[0] != 9 {
		t.Fatalf("most recent key lost: %v %v", v, ok)
	}
}

func TestCircularLogFIFOEviction(t *testing.T) {
	// A log sized for ~8 full entries: old values must age out and be
	// detected as stale, never returned corrupt.
	cfg := Config{IndexBuckets: 1 << 10, BucketSlots: 8, LogBytes: 8 * (entryHeader + MaxValueSize)}
	c := New(cfg)
	val := func(i uint64) []byte {
		v := bytes.Repeat([]byte{byte(i)}, MaxValueSize)
		return v
	}
	n := uint64(64)
	for i := uint64(0); i < n; i++ {
		c.Put(keyOf(i), val(i))
	}
	// Recent keys hit with correct bytes.
	for i := n - 4; i < n; i++ {
		v, ok := c.Get(keyOf(i))
		if !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("recent key %d: ok=%v", i, ok)
		}
	}
	// Old keys are gone (either index-evicted or stale), never corrupt.
	hits := 0
	for i := uint64(0); i < 8; i++ {
		if v, ok := c.Get(keyOf(i)); ok {
			if !bytes.Equal(v, val(i)) {
				t.Fatalf("key %d returned corrupt value", i)
			}
			hits++
		}
	}
	if hits != 0 {
		t.Fatalf("keys overwritten %dx ago still present: %d", 8, hits)
	}
}

func TestStaleEntriesDetected(t *testing.T) {
	cfg := Config{IndexBuckets: 1 << 10, BucketSlots: 8, LogBytes: 8 * (entryHeader + MaxValueSize)}
	c := New(cfg)
	k := keyOf(1)
	c.Put(k, []byte("victim"))
	for i := uint64(2); i < 40; i++ {
		c.Put(keyOf(i), make([]byte, MaxValueSize))
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("overwritten entry still returned")
	}
	if c.Stats().StaleIndexEntries == 0 {
		t.Fatal("stale entry not counted")
	}
}

func TestMemAccessAccounting(t *testing.T) {
	c := New(DefaultConfig())
	k := keyOf(5)
	c.Put(k, []byte("x"))
	before := c.Stats().MemAccesses
	c.Get(k)
	delta := c.Stats().MemAccesses - before
	if delta != AccessesPerGet {
		t.Fatalf("GET accesses = %d, want %d", delta, AccessesPerGet)
	}
	before = c.Stats().MemAccesses
	c.Put(k, []byte("y"))
	if d := c.Stats().MemAccesses - before; d != AccessesPerPut {
		t.Fatalf("PUT accesses = %d, want %d", d, AccessesPerPut)
	}
}

func TestPartitionStableAndBounded(t *testing.T) {
	for n := 1; n <= 16; n++ {
		for i := uint64(0); i < 100; i++ {
			p := Partition(keyOf(i), n)
			if p < 0 || p >= n {
				t.Fatalf("partition %d out of range [0,%d)", p, n)
			}
			if p != Partition(keyOf(i), n) {
				t.Fatal("partition not stable")
			}
		}
	}
	if Partition(keyOf(1), 0) != 0 {
		t.Fatal("n<=1 should return 0")
	}
}

func TestPartitionBalance(t *testing.T) {
	// Uniform keys over 6 partitions should land within 20% of even.
	n := 6
	counts := make([]int, n)
	total := 60000
	for i := 0; i < total; i++ {
		counts[Partition(keyOf(uint64(i)), n)]++
	}
	want := total / n
	for p, got := range counts {
		if got < want*8/10 || got > want*12/10 {
			t.Fatalf("partition %d has %d keys, want ~%d", p, got, want)
		}
	}
}

// Property: the cache agrees with a model map on every hit — a hit must
// return the most recently put value; misses are allowed (lossy), wrong
// data is not.
func TestCacheNeverLies(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		cfg := Config{IndexBuckets: 64, BucketSlots: 2, LogBytes: 1 << 14}
		c := New(cfg)
		model := make(map[Key][]byte)
		for _, op := range ops {
			k := keyOf(uint64(op % 64))
			if rnd.Intn(2) == 0 {
				v := []byte(fmt.Sprintf("v%d-%d", op, rnd.Intn(1000)))
				c.Put(k, v)
				model[k] = v
			} else {
				got, ok := c.Get(k)
				if ok && !bytes.Equal(got, model[k]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHitRateUnderCapacity(t *testing.T) {
	// When the working set fits comfortably, everything should hit.
	c := New(DefaultConfig())
	n := uint64(5000)
	for i := uint64(0); i < n; i++ {
		c.Put(keyOf(i), []byte{byte(i)})
	}
	misses := 0
	for i := uint64(0); i < n; i++ {
		if _, ok := c.Get(keyOf(i)); !ok {
			misses++
		}
	}
	if misses > int(n)/100 {
		t.Fatalf("misses = %d of %d with ample capacity", misses, n)
	}
}
