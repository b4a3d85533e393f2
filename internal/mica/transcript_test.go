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
// so a history over them exercises the tag-collision paths of Get and
// Put.
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
	for _, tc := range []struct {
		tag uint16
		off uint64
	}{
		{0, 0}, {0, 1}, {1, 0}, {0xffff, 0}, {0, 1<<48 - 2}, {0xffff, 1<<48 - 2}, {0x8001, 1<<47 + 12345},
	} {
		s := makeSlot(tc.tag, tc.off)
		if s == 0 || s.tag() != tc.tag || s.off() != tc.off {
			t.Errorf("makeSlot(%#x, %#x) = %#x: tag %#x off %#x", tc.tag, tc.off, uint64(s), s.tag(), s.off())
		}
	}
	if unsafe.Sizeof(slot(0))*8 != 64 {
		t.Fatalf("a bucket of 8 slots is %d bytes, want one 64-byte line", unsafe.Sizeof(slot(0))*8)
	}
}

// TestOffsetsNear48Bits runs partitions whose log head starts just
// below 2^48: entries there must still round-trip through the packed
// slots, wrap the log, and go stale, as they do at offset 0. The head
// starts at a multiple of LogBytes, so both partitions see the same
// positions; the second log spans several segments.
func TestOffsetsNear48Bits(t *testing.T) {
	for _, tc := range []struct {
		logBytes, maxVal int
	}{
		{8 << 10, 200},
		{2*segStride + 4321, MaxValueSize},
	} {
		cfg := Config{IndexBuckets: 1 << 6, BucketSlots: 8, LogBytes: tc.logBytes}
		c := New(cfg)
		c.head = (1<<48 - 1<<22) / uint64(tc.logBytes) * uint64(tc.logBytes)
		ref := New(cfg)
		for i := uint64(0); i < 2000; i++ {
			k := keyOf(i % 300)
			v := bytes.Repeat([]byte{byte(i)}, int(i)%tc.maxVal+1)
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
				t.Fatalf("log %d, op %d: Get near 2^48 = %v %q, at offset 0 = %v %q", tc.logBytes, i, ok, got, wok, want)
			}
		}
		if c.head >= 1<<48-1 {
			t.Fatalf("log %d: test ran the head past the 48-bit limit (%#x)", tc.logBytes, c.head)
		}
		if ref.head <= uint64(tc.logBytes) {
			t.Fatalf("log %d: never wrapped (head %d)", tc.logBytes, ref.head)
		}
		if c.Stats() != ref.Stats() {
			t.Fatalf("log %d: stats near 2^48 %+v, at offset 0 %+v", tc.logBytes, c.Stats(), ref.Stats())
		}
	}
}

// transcript runs a seeded history of 40,000 Put/Get operations on a
// partition sized by cfg, with values of up to maxVal-1 bytes over
// plain keys plus tag-colliding pairs, and returns a digest of every
// result (hit, value bytes, error) and of the final
// Range walk in slot order, with the final Stats and the number of
// entries that straddled a segment stride boundary or followed an
// end-of-log skip.
func transcript(t *testing.T, cfg Config, plain, pairs, maxVal int) (digest uint64, stats Stats, straddles, skips int) {
	t.Helper()
	c := New(cfg)
	keys := transcriptKeys(c.mask, plain, pairs)
	rnd := sim.NewRand(2014)
	h := fnv.New64a()
	var word [8]byte
	note := func(tag byte, n uint64) {
		binary.LittleEndian.PutUint64(word[:], n)
		h.Write([]byte{tag})
		h.Write(word[:])
	}
	val := make([]byte, 0, maxVal)
	for i := 0; i < 40000; i++ {
		k := keys[rnd.Intn(len(keys))]
		if rnd.Intn(10) < 5 {
			v, ok := c.Get(k)
			if !ok {
				note('m', 0)
				continue
			}
			note('g', uint64(len(v)))
			h.Write(v)
			continue
		}
		val = val[:rnd.Intn(maxVal)]
		for j := range val {
			val[j] = byte(i + j)
		}
		head := c.head
		if err := c.Put(k, val); err != nil {
			t.Fatalf("op %d: Put: %v", i, err)
		}
		need := uint64(entryHeader + len(val))
		if c.head-head > need {
			skips++
		}
		if pos := (c.head - need) % uint64(c.cfg.LogBytes); pos/segStride != (pos+need-1)/segStride {
			straddles++
		}
		note('p', uint64(len(val)))
	}
	c.Range(func(key Key, value []byte) bool {
		h.Write(key[:])
		h.Write(value)
		return true
	})
	return h.Sum64(), c.Stats(), straddles, skips
}

// TestTranscriptPinned runs seeded histories on partitions whose logs
// wrap many times over, whose buckets overflow and whose keys include
// tag-colliding pairs, and pins each history's digest and final Stats,
// so a change to the index or log layout that moves any lookup, victim
// choice or stale detection fails here. The small log fits in one
// segment; the large one spans several, is not a multiple of the
// stride, and carries values up to MaxValueSize, so entries straddle
// stride boundaries and the end-of-log skip.
func TestTranscriptPinned(t *testing.T) {
	for _, tc := range []struct {
		name         string
		cfg          Config
		plain, pairs int
		maxVal       int
		wantDigest   uint64
		want         Stats
	}{
		{
			name: "one-segment", cfg: Config{IndexBuckets: 16, BucketSlots: 4, LogBytes: 8 << 10},
			plain: 160, pairs: 24, maxVal: 300, wantDigest: 0x27acec917d3d2c11,
			want: Stats{
				Gets: 20083, GetHits: 3703, Puts: 19917, IndexEvictions: 13695,
				MemAccesses: 46990, SequentialAppends: 19917, StaleIndexEntries: 2512, TagFalsePositives: 775,
			},
		},
		{
			name: "multi-segment", cfg: Config{IndexBuckets: 64, BucketSlots: 4, LogBytes: 3*segStride + 12345},
			plain: 400, pairs: 32, maxVal: MaxValueSize + 1, wantDigest: 0x7ad1c6e48381cff7,
			want: Stats{
				Gets: 20083, GetHits: 8636, Puts: 19917, IndexEvictions: 9595,
				MemAccesses: 50957, SequentialAppends: 19917, StaleIndexEntries: 1419, TagFalsePositives: 902,
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			digest, stats, straddles, skips := transcript(t, tc.cfg, tc.plain, tc.pairs, tc.maxVal)
			if tc.cfg.LogBytes > segStride && (tc.cfg.LogBytes%segStride == 0 || straddles == 0 || skips == 0) {
				t.Errorf("multi-segment log of %d bytes: %d straddles, %d end-of-log skips; want a log that is not a multiple of the %d-byte stride, and both",
					tc.cfg.LogBytes, straddles, skips, segStride)
			}
			if digest != tc.wantDigest {
				t.Errorf("transcript digest %#x, want %#x", digest, tc.wantDigest)
			}
			if stats != tc.want {
				t.Errorf("final stats\n got %+v\nwant %+v", stats, tc.want)
			}
		})
	}
}
