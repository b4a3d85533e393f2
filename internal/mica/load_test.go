package mica

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"herdkv/internal/kv"
)

// clone deep-copies a partition, pending loads included, so a test can
// settle and read the copy without settling the original. It waits for
// the batch in flight first, which owns the partition's state until it
// is applied; the partial batch is copied, not applied.
func (c *Cache) clone() *Cache {
	if c.loads != nil && c.loads.prev != nil {
		<-c.loads.prev.done
	}
	d := *c
	if c.loads != nil {
		b := *c.loads
		b.prev = nil
		d.loads = &b
	}
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
	fullBatches   int // loads that filled the settle queue and settled it
	dupInBatch    int // loads of a key already queued in the same settle batch
	wrapsMidBatch int // loads that reached the log's first wrap with inserts queued
	evictions     uint64
	tagCollision  uint64

	// LoadNewer cases: a stamp newer, older or equal to the one queued
	// for the same key in the same batch; unstamped bytes refused; the
	// first-lap fallback to PutNewer; stamps refused in all.
	newerInBatch, olderInBatch, equalInBatch int
	unstamped, newerFallbacks, refused       int

	// Handoff cases: batches handed to a loader goroutine; loads of a
	// key already in a batch handed off since the last barrier; batches
	// handed off with the log's first wrap in them; Gets that waited for
	// a handed-off batch.
	handoffs, acrossHandoff, wrapsInLoader, getsAfterHandoff int
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
	c.handoffs += o.handoffs
	c.acrossHandoff += o.acrossHandoff
	c.wrapsInLoader += o.wrapsInLoader
	c.getsAfterHandoff += o.getsAfterHandoff
}

// missed lists the cases a run did not reach.
func (c twinCoverage) missed() bool {
	return c.fullBatches == 0 || c.dupInBatch == 0 || c.wrapsMidBatch == 0 || c.evictions == 0 || c.tagCollision == 0 ||
		c.newerInBatch == 0 || c.olderInBatch == 0 || c.equalInBatch == 0 ||
		c.unstamped == 0 || c.newerFallbacks == 0 || c.refused == 0 ||
		c.handoffs == 0 || c.acrossHandoff == 0 || c.wrapsInLoader == 0 || c.getsAfterHandoff == 0
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

// twins is one history on three partitions of one config. ref applies
// every insert at once, through Put or PutNewer. bulk takes the loads
// through Load or LoadNewer, so they cross handoff batches to its
// loader goroutines. seq runs the loader's own sequential path, load,
// on the test goroutine, and settles where bulk's barrier would.
// handed and filling hold the keys of bulk's batches handed off since
// the last barrier and of the batch being filled.
type twins struct {
	ref, bulk, seq  *Cache
	handed, filling map[Key]bool
	fillingWraps    bool // the batch being filled holds the log's first wrap
	cov             twinCoverage
}

func newTwins(cfg Config) *twins {
	return &twins{ref: New(cfg), bulk: New(cfg), seq: New(cfg), handed: map[Key]bool{}, filling: map[Key]bool{}}
}

// load runs one plain (newer false) or ordered load on the three
// partitions and returns the reference's and bulk's errors.
func (w *twins) load(key Key, v []byte, newer bool) (re, be error) {
	seq := w.seq
	queued := seq.queued
	if slices.ContainsFunc(seq.queue[:queued], func(p pendingInsert) bool { return p.key == key }) {
		w.cov.dupInBatch++
	}
	wraps := seq.head+uint64(entryHeader+len(v)) > uint64(seq.cfg.LogBytes)
	firstWrap := wraps && seq.head <= uint64(seq.cfg.LogBytes)
	before := w.bulk.loads
	if !newer {
		re, be = w.ref.Put(key, v), w.bulk.Load(key, v)
	} else {
		w.cov.noteNewer(seq, key, v, wraps)
		var applied bool
		applied, re = w.ref.PutNewer(key, v)
		be = w.bulk.LoadNewer(key, v)
		switch {
		case errors.Is(re, kv.ErrUnstamped):
			w.cov.unstamped++
		case !applied && re == nil:
			w.cov.refused++
		}
	}
	if be != nil {
		return re, be
	}
	seq.load(key, v, newer)
	switch {
	case wraps && queued > 0:
		w.cov.wrapsMidBatch++
	case !wraps && queued == loadBatch-1:
		w.cov.fullBatches++
	}
	if w.handed[key] {
		w.cov.acrossHandoff++
	}
	w.filling[key] = true
	w.fillingWraps = w.fillingWraps || firstWrap
	if before != nil && w.bulk.loads != before {
		w.cov.handoffs++
		if w.fillingWraps {
			w.cov.wrapsInLoader++
		}
		for k := range w.filling {
			w.handed[k] = true
		}
		clear(w.filling)
		w.fillingWraps = false
	}
	return re, be
}

// barrier settles seq, as any method but Load and LoadNewer settles
// bulk, before one runs on all three; a Get counts as one that waited
// for a handed-off batch if bulk had one.
func (w *twins) barrier(get bool) {
	if w.seq.queued != 0 {
		w.seq.settle()
	}
	if get && len(w.handed) > 0 {
		w.cov.getsAfterHandoff++
	}
	clear(w.handed)
	clear(w.filling)
	w.fillingWraps = false
}

// check fails t unless settled copies of the three partitions agree:
// ref and bulk as sameState reads them, and bulk and seq byte for byte.
func (w *twins) check(t testing.TB, op int, keys []Key) {
	t.Helper()
	bulk, seq := w.bulk.clone(), w.seq.clone()
	if seq.queued != 0 {
		seq.settle()
	}
	if bulk.Stats() != seq.stats || !slices.Equal(bulk.slots, seq.slots) || !slices.Equal(bulk.fifoPos, seq.fifoPos) ||
		bulk.head != seq.head || !slices.EqualFunc(bulk.segs, seq.segs, bytes.Equal) {
		t.Fatalf("after op %d: the handoff's partition differs from the sequential load's", op)
	}
	sameState(t, op, w.ref.clone(), bulk, keys)
}

// burstLoads is how many loads a burst op runs, enough for a burst of
// large values to fill several handoff batches.
const burstLoads = 64

// runTwins drives a twins with one history: ops[0] picks the config,
// and each following 3-byte group is an operation (kind, key, value
// length). A plain load is a Put on the reference and a Load on bulk,
// and an ordered load, whose value carries a version stamp from a
// small range (or is too short to carry one), is a PutNewer and a
// LoadNewer. A burst is burstLoads loads of either kind, of the keys in
// turn from the op's, so a history's loads cross handoff batches. Get,
// Put, PutNewer, Range and Stats run on the reference and bulk, and
// those that change a partition (Get, Put, PutNewer) on seq too, which
// settles where bulk's barrier does. After every operation the
// reference and bulk must have returned the same results and
// twins.check must pass.
func runTwins(t testing.TB, ops []byte) (cov twinCoverage) {
	t.Helper()
	if len(ops) == 0 {
		return cov
	}
	cfg := twinConfig(ops[0])
	w := newTwins(cfg)
	ref, bulk, seq := w.ref, w.bulk, w.seq
	keys := append(transcriptKeys(ref.mask, 40, 6), Key{}) // + the reserved zero key
	val := make([]byte, MaxValueSize+1)
	for i := 1; i+3 <= len(ops); i += 3 {
		kind, k := ops[i], int(ops[i+1])
		key := keys[k%len(keys)]
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
		case kind < 248: // bulk loads: 152–159 and 240–247 are bursts
			n := 1
			if kind >= 152 && kind < 160 || kind >= 240 {
				n = burstLoads
			}
			for j := 0; j < n; j++ {
				key := keys[(k+j)%len(keys)]
				if re, be := w.load(key, v, kind >= 160); re != be {
					t.Fatalf("op %d: reference err %v, queued err %v", i, re, be)
				}
			}
		case kind < 250:
			w.barrier(true)
			rv, rok := ref.Get(key)
			bv, bok := bulk.Get(key)
			seq.Get(key)
			if rok != bok || !bytes.Equal(rv, bv) {
				t.Fatalf("op %d: Get = %q,%v on the reference, %q,%v on the queued twin", i, rv, rok, bv, bok)
			}
		case kind < 252:
			// Put past its checks settles seq as it waits for bulk's
			// loader; a refused one does neither.
			_ = seq.Put(key, v)
			re, be := ref.Put(key, v), bulk.Put(key, v)
			if re != be {
				t.Fatalf("op %d: Put err %v and %v", i, re, be)
			}
			if be == nil {
				w.barrier(false)
			}
		case kind < 254:
			_, _ = seq.PutNewer(key, v)
			ra, re := ref.PutNewer(key, v)
			ba, be := bulk.PutNewer(key, v)
			if ra != ba || re != be {
				t.Fatalf("op %d: PutNewer = %v,%v and %v,%v", i, ra, re, ba, be)
			}
			if be == nil {
				w.barrier(false)
			}
		case kind == 254:
			w.barrier(false)
			if r, b := rangeOf(ref), rangeOf(bulk); !slices.EqualFunc(r, b, bytes.Equal) {
				t.Fatalf("op %d: Range differs", i)
			}
		default:
			w.barrier(false)
			if r, b := ref.Stats(), bulk.Stats(); r != b {
				t.Fatalf("op %d: Stats\nreference %+v\nqueued    %+v", i, r, b)
			}
		}
		w.check(t, i, keys)
	}
	st := ref.Stats()
	w.cov.evictions, w.cov.tagCollision = st.IndexEvictions, st.TagFalsePositives
	return w.cov
}

// noteNewer records which LoadNewer case an ordered load of key and v
// reaches on the sequential twin, before it is applied.
func (c *twinCoverage) noteNewer(seq *Cache, key Key, v []byte, wraps bool) {
	if key.IsZero() || len(v) > MaxValueSize || len(v) < kv.VersionPrefixLen {
		return
	}
	if wraps {
		c.newerFallbacks++
		return
	}
	nv, _, _, _ := kv.SplitVersion(v)
	for i := seq.queued - 1; i >= 0; i-- {
		p := seq.queue[i]
		if p.key != key || !p.newer {
			continue
		}
		_, qv, _ := seq.entry(p.off)
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

// sameState fails t unless two settled partitions read the same: Stats,
// the Range walk (every indexed entry's key and value bytes), a Get of
// every key, and the index slots, FIFO victims and log head.
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
// stream of Puts and PutNewers, and byte for byte as the loader's
// sequential path, through full and partial batches, duplicate keys
// within a batch (for LoadNewer, newer, older and equal stamps),
// refused unstamped bytes, refused stamps, tag collisions, full
// buckets, the log's first wrap, and handoff batches: keys repeated
// across them, the first wrap inside one and Gets that wait for them.
// It also checks that the histories reached each of those cases.
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

// TestLoadHandoffMatchesPut loads one partition the way a server
// preload or WAL replay does, a long stream of loads with a few reads,
// so each stretch between Gets crosses several handoff batches: a
// partition taking LoadNewer and Load through the handoff must end,
// at every Get and at the end, exactly as the same PutNewer and Put
// calls leave it (index slots, FIFO victims, log head, the bytes of
// every indexed entry, Stats), and byte for byte as the sequential
// load path leaves it. The log wraps partway through, stale stamps are
// refused, and keys recur across batch boundaries.
func TestLoadHandoffMatchesPut(t *testing.T) {
	cfg := Config{IndexBuckets: 1 << 9, BucketSlots: 8, LogBytes: 256 << 10}
	w := newTwins(cfg)
	keys := make([]Key, 3000)
	for i := range keys {
		keys[i] = keyOf(uint64(i))
	}
	rnd := rand.New(rand.NewSource(46))
	val := make([]byte, 140)
	handoffs := 0
	for op := 0; op < 12500; op++ {
		key := keys[rnd.Intn(len(keys))]
		v := val[:kv.VersionPrefixLen+rnd.Intn(len(val)-kv.VersionPrefixLen)]
		rnd.Read(v)
		kv.AppendVersion(v[:0], kv.Version{Epoch: 1, Seq: uint64(rnd.Intn(16))}, false)
		if re, be := w.load(key, v, op%5 != 0); re != nil || be != nil {
			t.Fatalf("op %d: load errors %v and %v", op, re, be)
		}
		if op%2500 == 2499 {
			if n := w.cov.handoffs - handoffs; n < 3 {
				t.Fatalf("op %d: %d handoffs since the last Get, want several", op, n)
			}
			handoffs = w.cov.handoffs
			w.barrier(true)
			rv, rok := w.ref.Get(key)
			bv, bok := w.bulk.Get(key)
			w.seq.Get(key)
			if rok != bok || !bytes.Equal(rv, bv) {
				t.Fatalf("op %d: Get = %q,%v on the reference, %q,%v through the handoff", op, rv, rok, bv, bok)
			}
			w.check(t, op, keys)
		}
	}
	t.Logf("coverage: %+v", w.cov)
	if c := w.cov; c.refused == 0 || c.acrossHandoff == 0 || c.wrapsInLoader == 0 || c.getsAfterHandoff == 0 {
		t.Fatalf("history missed a case: %+v", c)
	}
	if w.ref.head <= uint64(cfg.LogBytes) {
		t.Fatalf("log never wrapped (head %d)", w.ref.head)
	}
}

// TestLoadRefusesLikePut: Load and LoadNewer refuse what Put refuses,
// hand nothing off and count nothing.
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
	if c.loads != nil || c.head != 0 || c.Stats() != (Stats{}) {
		t.Fatalf("refused Loads left a batch %v, head=%d stats=%+v", c.loads != nil, c.head, c.Stats())
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
