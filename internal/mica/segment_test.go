package mica

import (
	"encoding/binary"
	"runtime"
	"testing"
	"unsafe"

	"herdkv/internal/sim"
)

// committed returns the log bytes c has allocated so far.
func committed(c *Cache) (bytes, segs int) {
	for _, s := range c.segs {
		if s != nil {
			bytes += len(s)
			segs++
		}
	}
	return bytes, segs
}

// TestSegmentIsWholePages checks that a full segment fills whole 8 KiB
// runtime pages with less than one page to spare, so committing one
// loses nothing to span rounding.
func TestSegmentIsWholePages(t *testing.T) {
	const page = 8 << 10
	if segBytes > 8*page || segBytes <= 7*page {
		t.Fatalf("a segment is %d bytes, want within eight %d-byte pages", segBytes, page)
	}
}

// TestLogCommittedLazily checks that New allocates the index and no log
// bytes, however large LogBytes is, and that after every append the
// committed log is no larger than the segments the head has reached.
func TestLogCommittedLazily(t *testing.T) {
	cfg := Config{IndexBuckets: 1 << 10, BucketSlots: 8, LogBytes: 1 << 30}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := New(cfg)
	runtime.ReadMemStats(&after)
	index := cfg.IndexBuckets * int(unsafe.Sizeof(bucket{}))
	table := (cfg.LogBytes + segStride - 1) / segStride * 24 // one slice header per segment
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(index+table+4<<10) {
		t.Fatalf("New allocated %d bytes for a %d-byte index and %d-byte segment table", got, index, table)
	}
	if n, _ := committed(c); n != 0 {
		t.Fatalf("New committed %d log bytes", n)
	}
	rnd := sim.NewRand(7)
	val := make([]byte, MaxValueSize)
	for i := uint64(1); i <= 5000; i++ {
		var k Key
		binary.LittleEndian.PutUint64(k[:], i)
		if err := c.Put(k, val[:rnd.Intn(MaxValueSize+1)]); err != nil {
			t.Fatal(err)
		}
		reached := int((c.head + segStride - 1) / segStride)
		if n, segs := committed(c); segs > reached || n > reached*segBytes {
			t.Fatalf("after %d appends (head %d): %d bytes in %d segments committed, want at most %d segments",
				i, c.head, n, segs, reached)
		}
	}
}

// checkFIFO fills a one-bucket partition with slots keys and then
// inserts evictions more, checking after each insert that exactly the
// most recent slots keys are present: full buckets evict in FIFO order.
func checkFIFO(t *testing.T, c *Cache, slots, evictions int) {
	t.Helper()
	for n := 0; n < slots+evictions; n++ {
		if err := c.Put(keyOf(uint64(n)), []byte{byte(n)}); err != nil {
			t.Fatal(err)
		}
		for k := max(0, n-slots); k <= n; k++ {
			_, ok := c.Get(keyOf(uint64(k)))
			if want := k > n-slots; ok != want {
				t.Fatalf("after insert %d: key %d present %v, want %v", n, k, ok, want)
			}
		}
	}
	if got := c.Stats().IndexEvictions; got != uint64(evictions) {
		t.Fatalf("IndexEvictions = %d, want %d", got, evictions)
	}
}

// TestFIFOVictimSixSlots runs more than 256 evictions through one
// bucket whose associativity does not divide 256: the victim counter
// must cycle through all six slots, not wrap to slot 0 at 256.
func TestFIFOVictimSixSlots(t *testing.T) {
	checkFIFO(t, New(Config{IndexBuckets: 1, BucketSlots: 6, LogBytes: 1 << 20}), 6, 310)
}

// TestBucketSlotsClamped checks that New caps the associativity at 8,
// the width of a bucket's one-byte used-position mask, and that every
// one of the 8 slots is still evicted in turn.
func TestBucketSlotsClamped(t *testing.T) {
	c := New(Config{IndexBuckets: 1, BucketSlots: 300, LogBytes: 1 << 20})
	if got := c.cfg.BucketSlots; got != 8 {
		t.Fatalf("BucketSlots = %d, want 8", got)
	}
	checkFIFO(t, c, 8, 300)
}
