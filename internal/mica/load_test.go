package mica

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// clone deep-copies a partition, queued Load inserts included, so a
// test can settle and read the copy without settling the original.
func (c *Cache) clone() *Cache {
	d := *c
	d.slots = slices.Clone(c.slots)
	d.fifoPos = slices.Clone(c.fifoPos)
	d.segs = make([][]byte, len(c.segs))
	for i, s := range c.segs {
		d.segs[i] = slices.Clone(s)
	}
	return &d
}

// twinCoverage counts the cases an equivalence run reached, so the
// property test can insist its random histories reach each of them.
type twinCoverage struct {
	fullBatches   int // Loads that filled the queue and settled it
	dupInBatch    int // Loads of a key already queued in the same batch
	wrapsMidBatch int // Loads that reached the log's first wrap with inserts queued
	evictions     uint64
	tagCollision  uint64
}

// twinConfig maps one byte to a small partition: 1–8 buckets of 1–8
// slots over a log of 4–32 KiB, so buckets fill, FIFO victims rotate
// and the log wraps within a few hundred appends.
func twinConfig(b byte) Config {
	return Config{
		IndexBuckets: 1 << (b & 3),
		BucketSlots:  1 << (b >> 2 & 3),
		LogBytes:     4 << 10 << (b >> 4 & 3),
	}
}

// runTwins drives two partitions with one history: ops[0] picks the
// config, and each following 3-byte group is an operation (kind, key,
// value length). The reference partition takes every load as a Put, the
// other as a Load; Get, Put, Range and Stats run on both. After
// every operation both must have returned the same result, and settled
// copies of both must agree on Stats, Range order, a Get of every key
// and the index, FIFO and log state.
func runTwins(t testing.TB, ops []byte) (cov twinCoverage) {
	t.Helper()
	if len(ops) == 0 {
		return cov
	}
	cfg := twinConfig(ops[0])
	ref, bulk := New(cfg), New(cfg)
	keys := append(transcriptKeys(ref.mask, 40, 6), Key{}) // + the reserved zero key
	val := make([]byte, MaxValueSize+1)
	for i := 1; i+3 <= len(ops); i += 3 {
		kind, key := ops[i], keys[int(ops[i+1])%len(keys)]
		v := val[:valueLen(ops[i+2])]
		for j := range v {
			v[j] = byte(i + j)
		}
		switch {
		case kind < 248: // a bulk load
			queued := bulk.queued
			if slices.ContainsFunc(bulk.queue[:queued], func(p pendingInsert) bool { return p.key == key }) {
				cov.dupInBatch++
			}
			wraps := bulk.head+uint64(entryHeader+len(v)) > uint64(cfg.LogBytes)
			re, be := ref.Put(key, v), bulk.Load(key, v)
			if re != be {
				t.Fatalf("op %d: Put err %v, Load err %v", i, re, be)
			}
			switch {
			case be != nil:
			case wraps && queued > 0:
				cov.wrapsMidBatch++
			case !wraps && queued == loadBatch-1:
				cov.fullBatches++
			}
		case kind < 250:
			rv, rok := ref.Get(key)
			bv, bok := bulk.Get(key)
			if rok != bok || !bytes.Equal(rv, bv) {
				t.Fatalf("op %d: Get = %q,%v on the Put twin, %q,%v on the Load twin", i, rv, rok, bv, bok)
			}
		case kind < 254:
			if re, be := ref.Put(key, v), bulk.Put(key, v); re != be {
				t.Fatalf("op %d: Put err %v and %v", i, re, be)
			}
		case kind == 254:
			if r, b := rangeOf(ref), rangeOf(bulk); !slices.EqualFunc(r, b, bytes.Equal) {
				t.Fatalf("op %d: Range differs", i)
			}
		default:
			if r, b := ref.Stats(), bulk.Stats(); r != b {
				t.Fatalf("op %d: Stats\nPut twin  %+v\nLoad twin %+v", i, r, b)
			}
		}
		sameState(t, i, ref.clone(), bulk.clone(), keys)
	}
	st := ref.Stats()
	cov.evictions, cov.tagCollision = st.IndexEvictions, st.TagFalsePositives
	return cov
}

// valueLen maps one byte to a value length: mostly short, some near
// MaxValueSize (so the log wraps), a few over it (refused).
func valueLen(b byte) int {
	switch {
	case b < 236:
		return int(b % 48)
	case b < 254:
		return MaxValueSize - int(b%8)
	default:
		return MaxValueSize + 1
	}
}

// rangeOf lists a partition's Range walk as alternating key and value.
func rangeOf(c *Cache) [][]byte {
	var out [][]byte
	c.Range(func(key Key, value []byte) bool {
		out = append(out, slices.Clone(key[:]), slices.Clone(value))
		return true
	})
	return out
}

// sameState fails t unless two settled partitions read the same.
func sameState(t testing.TB, op int, ref, bulk *Cache, keys []Key) {
	t.Helper()
	if r, b := ref.Stats(), bulk.Stats(); r != b {
		t.Fatalf("after op %d: Stats\nPut twin  %+v\nLoad twin %+v", op, r, b)
	}
	if r, b := rangeOf(ref), rangeOf(bulk); !slices.EqualFunc(r, b, bytes.Equal) {
		t.Fatalf("after op %d: Range walks differ:\nPut twin  %x\nLoad twin %x", op, r, b)
	}
	for _, k := range keys {
		rv, rok := ref.Get(k)
		bv, bok := bulk.Get(k)
		if rok != bok || !bytes.Equal(rv, bv) {
			t.Fatalf("after op %d: Get(%x) = %q,%v on the Put twin, %q,%v on the Load twin", op, k, rv, rok, bv, bok)
		}
	}
	if !slices.Equal(ref.slots, bulk.slots) || !slices.Equal(ref.fifoPos, bulk.fifoPos) || ref.head != bulk.head {
		t.Fatalf("after op %d: index, FIFO victims or log head differ", op)
	}
}

// TestLoadMatchesPut runs random histories through runTwins: a Load
// stream must leave a partition exactly as the same stream of Puts,
// through full and partial batches, duplicate keys within a batch,
// tag collisions, full buckets and the log's first wrap. It also checks
// that the histories reached each of those cases.
func TestLoadMatchesPut(t *testing.T) {
	rnd := rand.New(rand.NewSource(2014))
	var total twinCoverage
	for seed := 0; seed < 64; seed++ {
		ops := make([]byte, 1+3*600)
		rnd.Read(ops)
		cov := runTwins(t, ops)
		total.fullBatches += cov.fullBatches
		total.dupInBatch += cov.dupInBatch
		total.wrapsMidBatch += cov.wrapsMidBatch
		total.evictions += cov.evictions
		total.tagCollision += cov.tagCollision
	}
	if total.fullBatches == 0 || total.dupInBatch == 0 || total.wrapsMidBatch == 0 || total.evictions == 0 || total.tagCollision == 0 {
		t.Fatalf("histories missed a case: %+v", total)
	}
}

// TestLoadRefusesLikePut: Load refuses what Put refuses, queues nothing
// and counts nothing.
func TestLoadRefusesLikePut(t *testing.T) {
	c := New(DefaultConfig())
	if err := c.Load(Key{}, []byte("x")); err != ErrZeroKey {
		t.Fatalf("Load zero key: %v", err)
	}
	if err := c.Load(keyOf(1), make([]byte, MaxValueSize+1)); err != ErrValueTooLarge {
		t.Fatalf("Load oversized value: %v", err)
	}
	if c.queued != 0 || c.head != 0 || c.Stats() != (Stats{}) {
		t.Fatalf("refused Loads left queued=%d head=%d stats=%+v", c.queued, c.head, c.Stats())
	}
}

// FuzzLoadMatchesPut explores runTwins histories beyond the seeded ones.
func FuzzLoadMatchesPut(f *testing.F) {
	rnd := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 40, 200} {
		ops := make([]byte, 1+3*n)
		rnd.Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1+3*600 {
			return
		}
		runTwins(t, ops)
	})
}
