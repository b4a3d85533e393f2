package mica

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"herdkv/internal/kv"
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

	// LoadNewer cases: a stamp newer, older or equal to the one queued
	// for the same key in the same batch; unstamped bytes refused; the
	// first-lap fallback to PutNewer; stamps refused in all.
	newerInBatch, olderInBatch, equalInBatch int
	unstamped, newerFallbacks, refused       int
}

// add sums two runs' coverage.
func (c *twinCoverage) add(o twinCoverage) {
	c.fullBatches += o.fullBatches
	c.dupInBatch += o.dupInBatch
	c.wrapsMidBatch += o.wrapsMidBatch
	c.evictions += o.evictions
	c.tagCollision += o.tagCollision
	c.newerInBatch += o.newerInBatch
	c.olderInBatch += o.olderInBatch
	c.equalInBatch += o.equalInBatch
	c.unstamped += o.unstamped
	c.newerFallbacks += o.newerFallbacks
	c.refused += o.refused
}

// missed lists the cases a run did not reach.
func (c twinCoverage) missed() bool {
	return c.fullBatches == 0 || c.dupInBatch == 0 || c.wrapsMidBatch == 0 || c.evictions == 0 || c.tagCollision == 0 ||
		c.newerInBatch == 0 || c.olderInBatch == 0 || c.equalInBatch == 0 ||
		c.unstamped == 0 || c.newerFallbacks == 0 || c.refused == 0
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
// value length). The reference partition applies every insert at once,
// the other queues what it can: a plain load is a Put on the reference
// and a Load on the twin, and an ordered load, whose value carries a
// version stamp from a small range (or is too short to carry one), is
// a PutNewer on the reference and a LoadNewer on the twin. Get, Put,
// PutNewer, Range and Stats run on both. After every operation both
// must have returned the same result, and settled copies of both must
// agree on Stats, Range order, a Get of every key
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
		if kind >= 160 && kind < 248 || kind == 252 || kind == 253 {
			// Ordered: stamp seq 0–7, so duplicates in a batch arrive
			// newer, older and equal.
			if len(v) >= kv.VersionPrefixLen {
				kv.AppendVersion(v[:0], kv.Version{Epoch: 1, Seq: uint64(kind % 8)}, false)
			}
		}
		switch {
		case kind < 248: // a bulk load
			queued := bulk.queued
			if slices.ContainsFunc(bulk.queue[:queued], func(p pendingInsert) bool { return p.key == key }) {
				cov.dupInBatch++
			}
			wraps := bulk.head+uint64(entryHeader+len(v)) > uint64(cfg.LogBytes)
			var re, be error
			if kind < 160 {
				re, be = ref.Put(key, v), bulk.Load(key, v)
			} else {
				cov.noteNewer(bulk, key, v, wraps)
				var applied bool
				applied, re = ref.PutNewer(key, v)
				be = bulk.LoadNewer(key, v)
				switch {
				case errors.Is(re, kv.ErrUnstamped):
					cov.unstamped++
				case !applied && re == nil:
					cov.refused++
				}
			}
			if re != be {
				t.Fatalf("op %d: reference err %v, queued err %v", i, re, be)
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
				t.Fatalf("op %d: Get = %q,%v on the reference, %q,%v on the queued twin", i, rv, rok, bv, bok)
			}
		case kind < 252:
			if re, be := ref.Put(key, v), bulk.Put(key, v); re != be {
				t.Fatalf("op %d: Put err %v and %v", i, re, be)
			}
		case kind < 254:
			ra, re := ref.PutNewer(key, v)
			ba, be := bulk.PutNewer(key, v)
			if ra != ba || re != be {
				t.Fatalf("op %d: PutNewer = %v,%v and %v,%v", i, ra, re, ba, be)
			}
		case kind == 254:
			if r, b := rangeOf(ref), rangeOf(bulk); !slices.EqualFunc(r, b, bytes.Equal) {
				t.Fatalf("op %d: Range differs", i)
			}
		default:
			if r, b := ref.Stats(), bulk.Stats(); r != b {
				t.Fatalf("op %d: Stats\nreference %+v\nqueued    %+v", i, r, b)
			}
		}
		sameState(t, i, ref.clone(), bulk.clone(), keys)
	}
	st := ref.Stats()
	cov.evictions, cov.tagCollision = st.IndexEvictions, st.TagFalsePositives
	return cov
}

// noteNewer records which LoadNewer case an ordered load of key and v
// reaches on the queued twin, before it is applied.
func (c *twinCoverage) noteNewer(bulk *Cache, key Key, v []byte, wraps bool) {
	if key.IsZero() || len(v) > MaxValueSize || len(v) < kv.VersionPrefixLen {
		return
	}
	if wraps {
		c.newerFallbacks++
		return
	}
	nv, _, _, _ := kv.SplitVersion(v)
	for i := bulk.queued - 1; i >= 0; i-- {
		p := bulk.queue[i]
		if p.key != key || !p.newer {
			continue
		}
		_, qv, _ := bulk.entry(p.off)
		if ov, _, _, ok := kv.SplitVersion(qv); ok {
			switch ov.Compare(nv) {
			case -1:
				c.newerInBatch++
			case 1:
				c.olderInBatch++
			default:
				c.equalInBatch++
			}
		}
		return
	}
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
		t.Fatalf("after op %d: Stats\nreference %+v\nqueued    %+v", op, r, b)
	}
	if r, b := rangeOf(ref), rangeOf(bulk); !slices.EqualFunc(r, b, bytes.Equal) {
		t.Fatalf("after op %d: Range walks differ:\nreference %x\nqueued    %x", op, r, b)
	}
	for _, k := range keys {
		rv, rok := ref.Get(k)
		bv, bok := bulk.Get(k)
		if rok != bok || !bytes.Equal(rv, bv) {
			t.Fatalf("after op %d: Get(%x) = %q,%v on the reference, %q,%v on the queued twin", op, k, rv, rok, bv, bok)
		}
	}
	if !slices.Equal(ref.slots, bulk.slots) || !slices.Equal(ref.fifoPos, bulk.fifoPos) || ref.head != bulk.head {
		t.Fatalf("after op %d: index, FIFO victims or log head differ", op)
	}
}

// TestLoadMatchesPut runs random histories through runTwins: a stream
// of Loads and LoadNewers must leave a partition exactly as the same
// stream of Puts and PutNewers, through full and partial batches,
// duplicate keys within a batch (for LoadNewer, newer, older and equal
// stamps), refused unstamped bytes, refused stamps, tag collisions, full
// buckets and the log's first wrap. It also checks that the histories
// reached each of those cases.
func TestLoadMatchesPut(t *testing.T) {
	rnd := rand.New(rand.NewSource(2014))
	var total twinCoverage
	for seed := 0; seed < 64; seed++ {
		ops := make([]byte, 1+3*600)
		rnd.Read(ops)
		total.add(runTwins(t, ops))
	}
	if total.missed() {
		t.Fatalf("histories missed a case: %+v", total)
	}
	t.Logf("coverage: %+v", total)
}

// TestLoadRefusesLikePut: Load and LoadNewer refuse what Put refuses,
// queue nothing and count nothing.
func TestLoadRefusesLikePut(t *testing.T) {
	c := New(DefaultConfig())
	for _, load := range []func(Key, []byte) error{c.Load, c.LoadNewer} {
		if err := load(Key{}, []byte("x")); err != ErrZeroKey {
			t.Fatalf("zero key: %v", err)
		}
		if err := load(keyOf(1), make([]byte, MaxValueSize+1)); err != ErrValueTooLarge {
			t.Fatalf("oversized value: %v", err)
		}
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

// TestPutNewerMatchesGetThenPut: PutNewer's one scan leaves the index,
// FIFO victims and log exactly as the two-scan rule it replaces (a Get
// of the stored stamp, then a Put when the new stamp outranks it),
// through full buckets, tag collisions and many log wraps, where that
// Get's clearing of overwritten entries decides which slot is free.
// Only Stats differ: the two-scan rule also counts a GET.
func TestPutNewerMatchesGetThenPut(t *testing.T) {
	rnd := rand.New(rand.NewSource(36))
	stale := uint64(0)
	for seed := 0; seed < 64; seed++ {
		ops := make([]byte, 1+3*600)
		rnd.Read(ops)
		cfg := twinConfig(ops[0])
		ref, one := New(cfg), New(cfg)
		keys := transcriptKeys(ref.mask, 40, 6)
		val := make([]byte, MaxValueSize)
		for i := 1; i+3 <= len(ops); i += 3 {
			key := keys[int(ops[i+1])%len(keys)]
			v := val[:min(valueLen(ops[i+2]), MaxValueSize)]
			for j := range v {
				v[j] = byte(i + j)
			}
			if len(v) >= kv.VersionPrefixLen && ops[i] < 240 {
				kv.AppendVersion(v[:0], kv.Version{Epoch: 1, Seq: uint64(ops[i] % 8)}, false)
			}
			want, wantErr := true, error(nil)
			if nv, _, _, ok := kv.SplitVersion(v); !ok {
				want, wantErr = false, kv.ErrUnstamped
			} else if old, found := ref.Get(key); found {
				if ov, _, _, _ := kv.SplitVersion(old); !ov.Less(nv) {
					want = false
				}
			}
			if want {
				if err := ref.Put(key, v); err != nil {
					t.Fatal(err)
				}
			}
			if got, err := one.PutNewer(key, v); err != wantErr || got != want {
				t.Fatalf("seed %d op %d: PutNewer = %v,%v, want %v,%v", seed, i, got, err, want, wantErr)
			}
			if !slices.Equal(ref.slots, one.slots) || !slices.Equal(ref.fifoPos, one.fifoPos) || ref.head != one.head {
				t.Fatalf("seed %d op %d: index, FIFO victims or log head differ", seed, i)
			}
		}
		if r, o := rangeOf(ref), rangeOf(one); !slices.EqualFunc(r, o, bytes.Equal) {
			t.Fatalf("seed %d: Range walks differ", seed)
		}
		stale += one.Stats().StaleIndexEntries
	}
	if stale == 0 {
		t.Fatal("no history freed a slot the log had overwritten")
	}
}
