package mica

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"testing"
	"unsafe"

	"herdkv/internal/kv"
	"herdkv/internal/sim"
)

// transcriptKeys returns a key set for a partition with the given
// bucket mask: plain keys, plus pairs that share both bucket and tag,
// so a history over them exercises the tag-collision paths of Get, Put
// and Delete.
func transcriptKeys(mask uint64, plain, pairs int) []Key {
	var keys []Key
	for i := uint64(1); len(keys) < plain; i++ {
		keys = append(keys, kv.FromUint64(i))
	}
	seen := map[uint64]Key{}
	for i := uint64(1 << 20); pairs > 0; i++ {
		k := kv.FromUint64(i)
		h := hash64(k)
		id := h&mask | (h>>48)<<32
		if first, ok := seen[id]; ok {
			keys = append(keys, first, k)
			delete(seen, id)
			pairs--
			continue
		}
		seen[id] = k
	}
	return keys
}

// TestSlotPacking checks the 8-byte slot at its edges: offset 0 and
// tag 0 (together still a used slot, distinct from empty), the largest
// tag, and offsets near the 48-bit limit.
func TestSlotPacking(t *testing.T) {
	if slot(0).used() {
		t.Fatal("the zero slot reads as used")
	}
	for _, tc := range []struct {
		tag uint16
		off uint64
	}{
		{0, 0}, {0, 1}, {1, 0}, {0xffff, 0}, {0, 1<<48 - 2}, {0xffff, 1<<48 - 2}, {0x8001, 1<<47 + 12345},
	} {
		s := makeSlot(tc.tag, tc.off)
		if !s.used() || s.tag() != tc.tag || s.off() != tc.off {
			t.Errorf("makeSlot(%#x, %#x) = %#x: used %v tag %#x off %#x", tc.tag, tc.off, uint64(s), s.used(), s.tag(), s.off())
		}
	}
	if unsafe.Sizeof(slot(0))*8 != 64 {
		t.Fatalf("a bucket of 8 slots is %d bytes, want one 64-byte line", unsafe.Sizeof(slot(0))*8)
	}
}

// TestOffsetsNear48Bits runs a partition whose log head starts just
// below 2^48: entries there must still round-trip through the packed
// slots, wrap the log, and go stale, as they do at offset 0.
func TestOffsetsNear48Bits(t *testing.T) {
	cfg := Config{IndexBuckets: 1 << 6, BucketSlots: 8, LogBytes: 8 << 10}
	c := New(cfg)
	c.head = 1<<48 - 1<<20
	ref := New(cfg)
	for i := uint64(0); i < 2000; i++ {
		k := keyOf(i % 300)
		v := bytes.Repeat([]byte{byte(i)}, int(i%200)+1)
		if err := c.Put(k, v); err != nil {
			t.Fatal(err)
		}
		if err := ref.Put(k, v); err != nil {
			t.Fatal(err)
		}
		g := keyOf((i * 7) % 300)
		got, ok := c.Get(g)
		want, wok := ref.Get(g)
		if ok != wok || !bytes.Equal(got, want) {
			t.Fatalf("op %d: Get near 2^48 = %v %q, at offset 0 = %v %q", i, ok, got, wok, want)
		}
	}
	if c.head >= 1<<48-1 {
		t.Fatalf("test ran the head past the 48-bit limit (%#x)", c.head)
	}
	if c.Stats() != ref.Stats() {
		t.Fatalf("stats near 2^48 %+v, at offset 0 %+v", c.Stats(), ref.Stats())
	}
}

// TestTranscriptPinned runs a seeded Put/Get/Delete history on a small
// partition whose log wraps many times over, whose buckets overflow
// and whose keys include tag-colliding pairs. A digest of every result
// (hit, value bytes, error, delete outcome), of the final Range walk in
// slot order, and the final Stats are pinned, so a change to the index
// layout that moves any lookup, victim choice or stale detection fails
// here.
func TestTranscriptPinned(t *testing.T) {
	c := New(Config{IndexBuckets: 16, BucketSlots: 4, LogBytes: 8 << 10})
	keys := transcriptKeys(c.mask, 160, 24)
	rnd := sim.NewRand(2014)
	h := fnv.New64a()
	var word [8]byte
	note := func(tag byte, n uint64) {
		binary.LittleEndian.PutUint64(word[:], n)
		h.Write([]byte{tag})
		h.Write(word[:])
	}
	val := make([]byte, 0, 300)
	for i := 0; i < 40000; i++ {
		k := keys[rnd.Intn(len(keys))]
		switch p := rnd.Intn(10); {
		case p < 5:
			v, ok := c.Get(k)
			if !ok {
				note('m', 0)
				continue
			}
			note('g', uint64(len(v)))
			h.Write(v)
		case p < 9:
			val = val[:rnd.Intn(300)]
			for j := range val {
				val[j] = byte(i + j)
			}
			if err := c.Put(k, val); err != nil {
				t.Fatalf("op %d: Put: %v", i, err)
			}
			note('p', uint64(len(val)))
		default:
			if c.Delete(k) {
				note('d', 1)
			} else {
				note('d', 0)
			}
		}
	}
	c.Range(func(key Key, value []byte) bool {
		h.Write(key[:])
		h.Write(value)
		return true
	})
	const wantDigest = 0xf64af6ed801cc593
	if got := h.Sum64(); got != wantDigest {
		t.Errorf("transcript digest %#x, want %#x", got, uint64(wantDigest))
	}
	want := Stats{
		Gets: 20047, GetHits: 3520, Puts: 15975, IndexEvictions: 10036,
		MemAccesses: 46675, SequentialAppends: 15975, StaleIndexEntries: 2398, TagFalsePositives: 757,
	}
	if got := c.Stats(); got != want {
		t.Errorf("final stats\n got %+v\nwant %+v", got, want)
	}
}
