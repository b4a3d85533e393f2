// Package mica implements the MICA-style key-value cache that backs HERD
// (Section 4.1 of the paper): a lossy associative index mapping keyhashes
// to pointers, and a circular log holding the values.
//
// The design's properties, preserved here:
//
//   - GET costs at most two random memory accesses (one index bucket,
//     one log entry); PUT costs one (the bucket) plus a sequential log
//     append.
//   - The index is lossy: inserting into a full bucket evicts the
//     oldest slot.
//   - The log is circular with FIFO eviction and no garbage collection;
//     stale index entries are detected by offset distance. Its memory
//     is committed one segment at a time, the first time the append
//     head reaches the segment, so a partition holds only log bytes it
//     has written.
//   - Keys are 16-byte keyhashes (HERD requests carry only the keyhash);
//     a zero keyhash is reserved by the HERD protocol and rejected.
//   - A bulk load (Load) copies each entry into a handoff batch and
//     returns; each full batch is applied on its own loader goroutine,
//     one batch in flight per partition, so a server's partitions load
//     in parallel as its EREW cores would. The loader appends each
//     entry at once but applies index inserts 32 at a time, touching
//     their buckets first so the cache misses overlap, as the paper's
//     server overlaps requests' memory accesses (Section 4.1.1). Get,
//     Put, Range and Stats wait for the loader and apply the rest
//     first, so the cache always reads as if each Load had been a Put.
//   - Versioned values (a kv.Version stamp prefixed to the value) have
//     an ordered insert, PutNewer, and its bulk form, LoadNewer: the
//     stamp comparison runs inside the bucket scan that picks the slot,
//     and a stamp that does not outrank the stored one neither appends
//     nor indexes.
//
// The modeled index is MICA's: a bucket is one 64-byte cache line of 8
// slots, and a GET's bucket read is one random access (Stats.MemAccesses,
// which the server's timing model reads). The host layout is smaller:
// most buckets hold few keys, so each keeps three slots inline in a
// 32-byte record and moves them to a spill block when a fourth position
// fills. Every read and write of a slot goes through slotAt,
// setSlot and clearSlot, which address slots by position, so slot
// choice, FIFO victims, stale clears and Range order are those of the
// flat 8-slot line.
package mica

import (
	"encoding/binary"
	"errors"
	"math/bits"

	"herdkv/internal/kv"
)

// KeySize is the keyhash size in bytes.
const KeySize = kv.KeySize

// MaxValueSize bounds values; HERD items are at most 1 KB including the
// request header, so values cap at 1000 bytes (Section 4.2).
const MaxValueSize = 1000

// Key is a 16-byte keyhash (shared across the KV backends).
type Key = kv.Key

// Hash seeds: bucket selection and partition selection must be
// independent so EREW sharding does not correlate with bucket indices.
const (
	bucketSeed    = 0x11ca
	partitionSeed = 0xeeee
)

// hash64 is the bucket-selection hash.
//
//herd:hotpath
func hash64(k Key) uint64 { return k.Hash64(bucketSeed) }

// Errors returned by cache operations.
var (
	ErrValueTooLarge = errors.New("mica: value exceeds maximum size")
	ErrZeroKey       = kv.ErrZeroKey // the one sentinel every kv.KV backend returns
)

// Config sizes a cache partition.
type Config struct {
	// IndexBuckets is the number of index buckets (rounded up to a power
	// of two).
	IndexBuckets int
	// BucketSlots is the bucket associativity, at most 8: a bucket's
	// used positions are one byte's bits.
	BucketSlots int
	// LogBytes is the circular log capacity. Memory for it is committed
	// one segment at a time as the append head reaches each segment.
	LogBytes int
}

// DefaultConfig mirrors the paper's per-process sizing (64 Mi keys,
// 4 GB log) scaled down by default for tests; experiments override.
func DefaultConfig() Config {
	return Config{IndexBuckets: 1 << 14, BucketSlots: 8, LogBytes: 1 << 22}
}

// loadBatch is how many index inserts Load queues before settle
// applies them: enough independent bucket misses to keep the CPU's
// outstanding-miss slots busy.
const loadBatch = 32

// handoffBytes sizes a bulk-load handoff batch. A batch is handed to a
// loader goroutine once fewer bytes than one maximal entry are left:
// about 630 of the benchmark's 32-byte items, so a goroutine start and
// a channel cost a few nanoseconds a key. In core's BenchmarkPreload,
// 8 KiB batches were about 15% slower, and 16 to 64 KiB ones alike.
const handoffBytes = 32 << 10

// newerFlag marks a LoadNewer entry in a handoff batch: the top bit of
// its value length, which stays below MaxValueSize.
const newerFlag = 1 << 15

// maxBucketSlots caps BucketSlots: a bucket's used-position mask is
// one byte.
const maxBucketSlots = 8

const entryHeader = KeySize + 2 // keyhash + value length

// The log is a table of segments. Segment i covers log positions
// [i*segStride, (i+1)*segStride) and is allocated segBytes long
// (clipped at LogBytes), so an entry that starts in it is stored whole
// there even when it runs past the stride. A 63 KiB stride makes a
// segment 65,530 bytes: eight 8 KiB runtime pages, with no span
// rounding lost.
const (
	segStride = 63 << 10
	segBytes  = segStride + entryHeader + MaxValueSize
)

// slot is one index entry packed into 8 bytes, as in MICA: the top 16
// bits hold the keyhash tag, the low 48 bits the entry's monotonic log
// offset plus one, and zero means empty. A bucket of 8 slots is then
// one 64-byte cache line. Offsets stay below 2^48-1: 256 TiB of
// appends to one partition.
type slot uint64

const (
	offBits = 48
	offMask = 1<<offBits - 1
)

// makeSlot packs a used slot for tag and log offset off.
//
//herd:hotpath
func makeSlot(tag uint16, off uint64) slot { return slot(tag)<<offBits | slot(off+1) }

// tag returns a used slot's keyhash tag.
//
//herd:hotpath
func (s slot) tag() uint16 { return uint16(s >> offBits) }

// off returns a used slot's monotonic log offset.
//
//herd:hotpath
func (s slot) off() uint64 { return uint64(s&offMask) - 1 }

// inlineSlots is how many positions a bucket keeps in place.
const inlineSlots = 3

// bucket is one index bucket's host record, 32 bytes. Bit p of used is
// set while position p holds a slot, and victim is the next FIFO
// eviction position. Positions below inlineSlots sit in inline, indexed
// by position. The first store to a higher one moves them to a
// BucketSlots-slot block of the partition's spill arena, indexed the
// same way, and spill holds 1 + the arena index of the block's first
// slot from then on (0 while inline). A spilled bucket never moves back. A new slot takes
// the lowest free position, and a victim needs every position used, so
// a bucket stores to position inlineSlots only once the positions below
// it are all used: it spills when its fourth position fills.
type bucket struct {
	used   uint8
	victim uint8
	spill  uint32
	inline [inlineSlots]slot
}

// Stats counts cache activity.
type Stats struct {
	Gets, GetHits     uint64
	Puts              uint64
	IndexEvictions    uint64 // slots displaced from full buckets
	LogWraps          uint64 // entries invalidated by log reuse detection
	MemAccesses       uint64 // random accesses performed (timing model input)
	SequentialAppends uint64
	StaleIndexEntries uint64 // GETs that found an overwritten log entry
	TagFalsePositives uint64 // tag matched but full keyhash differed
}

// Cache is one EREW partition of the key-value cache. It is not safe for
// concurrent use: in HERD each core owns one partition exclusively.
// Its own bulk-load loader is the one exception (see Load), and every
// method but Load and LoadNewer waits for it first.
type Cache struct {
	cfg     Config
	mask    uint64
	buckets []bucket
	arena   []slot   // spill blocks, BucketSlots slots each
	segs    [][]byte // log segments, nil until the head first reaches one
	head    uint64   // total bytes ever appended (monotonic)
	stats   Stats

	// Load's queued index inserts, in Load order; queued counts them.
	// touched keeps settle's bucket touches from being optimised away.
	queue   [loadBatch]pendingInsert
	queued  int
	touched slot

	// loads is the handoff batch Load is filling, nil when no load is
	// pending. Until its prev is applied a loader goroutine owns every
	// field above but cfg and mask.
	loads *handoff
}

// handoff is a batch of bulk loads copied on the caller's goroutine.
// Its entries are laid out as in the log: keyhash, a 2-byte value
// length (with newerFlag for LoadNewer), then the value. prev is the
// partition's batch handed to a loader before this one, nil if none;
// done, made at the handoff, closes once the batch is applied. A
// partition's two batches take turns until the barrier drops both.
type handoff struct {
	prev *handoff
	done chan struct{}
	n    int
	buf  [handoffBytes]byte
}

// pendingInsert is one queued load: the entry load appended for key at
// log offset off, waiting to be indexed in bucket b. newer marks a
// LoadNewer insert, which settle may still refuse.
type pendingInsert struct {
	key   Key
	off   uint64
	b     int
	tag   uint16
	newer bool
}

// New returns an empty cache partition.
func New(cfg Config) *Cache {
	if cfg.IndexBuckets < 1 {
		cfg.IndexBuckets = 1
	}
	buckets := 1
	for buckets < cfg.IndexBuckets {
		buckets <<= 1
	}
	cfg.BucketSlots = min(max(cfg.BucketSlots, 1), maxBucketSlots)
	if cfg.LogBytes < 4*(entryHeader+MaxValueSize) {
		cfg.LogBytes = 4 * (entryHeader + MaxValueSize)
	}
	cfg.IndexBuckets = buckets
	if uint64(buckets)*uint64(cfg.BucketSlots) >= 1<<32 {
		panic("mica: IndexBuckets*BucketSlots must stay below 2^32, the spill index's range")
	}
	return &Cache{
		cfg:     cfg,
		mask:    uint64(buckets - 1),
		buckets: make([]bucket, buckets),
		segs:    make([][]byte, (cfg.LogBytes+segStride-1)/segStride),
	}
}

// Stats returns a snapshot of activity counters.
func (c *Cache) Stats() Stats {
	if c.loads != nil {
		c.await()
	}
	return c.stats
}

// bucketOf maps a keyhash to its bucket's index and tag.
//
//herd:hotpath
func (c *Cache) bucketOf(h uint64) (b int, tag uint16) {
	return int(h & c.mask), uint16(h >> 48)
}

// slotAt returns the slot at position pos of b, zero if it is empty.
//
//herd:hotpath
func (c *Cache) slotAt(b *bucket, pos int) slot {
	if b.spill != 0 {
		return c.arena[int(b.spill)-1+pos]
	}
	if pos < inlineSlots {
		return b.inline[pos]
	}
	return 0
}

// setSlot stores the used slot s at position pos of b. An inline
// bucket spills first if pos is past its inline slots: they move to a
// fresh block at the arena's end.
//
//herd:hotpath
func (c *Cache) setSlot(b *bucket, pos int, s slot) {
	b.used |= 1 << pos
	if b.spill == 0 {
		if pos < inlineSlots {
			b.inline[pos] = s
			return
		}
		n, size := len(c.arena), c.cfg.BucketSlots
		if n+size > cap(c.arena) {
			grown := make([]slot, n, n+n/4+64*size) //lint:allow hotalloc — spill arena growth, by a quarter, amortized over the spills it makes room for
			copy(grown, c.arena)
			c.arena = grown
		}
		c.arena = c.arena[:n+size]
		copy(c.arena[n:], b.inline[:])
		b.inline = [inlineSlots]slot{}
		b.spill = uint32(n + 1)
	}
	c.arena[int(b.spill)-1+pos] = s
}

// clearSlot empties the used position pos of b.
//
//herd:hotpath
func (c *Cache) clearSlot(b *bucket, pos int) {
	b.used &^= 1 << pos
	if b.spill != 0 {
		c.arena[int(b.spill)-1+pos] = 0
	} else {
		b.inline[pos] = 0
	}
}

// entry decodes the log entry at monotonic offset off, reporting
// false if log wraparound has overwritten it. The value aliases the
// log.
//
//herd:hotpath
func (c *Cache) entry(off uint64) (key Key, value []byte, ok bool) {
	size := uint64(c.cfg.LogBytes)
	if off >= c.head || c.head-off > size {
		return key, nil, false
	}
	pos := off % size
	if pos+entryHeader > size {
		return key, nil, false
	}
	e := c.segs[pos/segStride][pos%segStride:]
	copy(key[:], e[:KeySize])
	vlen := uint64(binary.LittleEndian.Uint16(e[KeySize:entryHeader]))
	if pos+entryHeader+vlen > size || c.head-off < entryHeader+vlen {
		return key, nil, false
	}
	return key, e[entryHeader : entryHeader+vlen], true
}

// Get returns the value for key. The returned slice aliases the log and
// is valid until the next Put.
//
//herd:hotpath
func (c *Cache) Get(key Key) ([]byte, bool) {
	if c.loads != nil {
		c.await()
	}
	c.stats.Gets++
	if key.IsZero() {
		return nil, false
	}
	i, tag := c.bucketOf(hash64(key))
	b := &c.buckets[i]
	c.stats.MemAccesses++ // bucket read
	for m := b.used; m != 0; m &= m - 1 {
		pos := bits.TrailingZeros8(m)
		s := c.slotAt(b, pos)
		if s.tag() != tag {
			continue
		}
		c.stats.MemAccesses++ // log entry read
		stored, v, ok := c.entry(s.off())
		if !ok || stored != key {
			// Either overwritten by the circular log or a tag collision.
			if c.head-s.off() > uint64(c.cfg.LogBytes) {
				c.stats.StaleIndexEntries++
				c.clearSlot(b, pos)
			} else {
				c.stats.TagFalsePositives++
			}
			continue
		}
		c.stats.GetHits++
		return v, true
	}
	return nil, false
}

// append writes an entry for key/value and returns its monotonic offset.
//
//herd:hotpath
func (c *Cache) append(key Key, value []byte) uint64 {
	size := uint64(c.cfg.LogBytes)
	need := uint64(entryHeader + len(value))
	pos := c.head % size
	skip := uint64(0)
	if pos+need > size {
		// Entries never wrap; skip the tail remainder.
		skip = size - pos
		pos = 0
	}
	c.head += skip
	off := c.head
	i := pos / segStride
	if c.segs[i] == nil {
		c.segs[i] = make([]byte, min(segBytes, size-i*segStride)) //lint:allow hotalloc — commits a segment the first time the head reaches it
	}
	e := c.segs[i][pos%segStride:]
	copy(e, key[:])
	binary.LittleEndian.PutUint16(e[KeySize:], uint16(len(value)))
	copy(e[entryHeader:], value)
	c.head += need
	c.stats.SequentialAppends++
	return off
}

// Put inserts or updates key with value. Inserting into a full bucket
// evicts a slot (the lossy index); old log space is reclaimed implicitly
// by wraparound (FIFO).
//
//herd:hotpath
func (c *Cache) Put(key Key, value []byte) error {
	if key.IsZero() {
		return ErrZeroKey
	}
	if len(value) > MaxValueSize {
		return ErrValueTooLarge
	}
	if c.loads != nil {
		c.await()
	}
	c.put(key, value)
	return nil
}

// put is Put past its checks, which the loader also runs as Load's
// fallback near the log's first wrap.
//
//herd:hotpath
func (c *Cache) put(key Key, value []byte) {
	if c.queued != 0 {
		c.settle()
	}
	c.stats.Puts++
	i, tag := c.bucketOf(hash64(key))
	b := &c.buckets[i]
	c.stats.MemAccesses++ // bucket read/update
	// Locate the destination slot before appending: stale detection
	// reads the log head as it stood before this entry.
	pos := c.slotFor(b, tag, key)
	c.setSlot(b, pos, makeSlot(tag, c.append(key, value)))
}

// slotFor returns the position key's entry goes in, within b: key's
// own slot, else the first free one, else the bucket's FIFO victim
// (the lossy index). Tags are partial hashes, so a tag match must be
// confirmed against the full keyhash stored in the log before reusing
// the slot — otherwise two distinct keys sharing a tag would silently
// merge.
//
//herd:hotpath
func (c *Cache) slotFor(b *bucket, tag uint16, key Key) int {
	for m := b.used; m != 0; m &= m - 1 {
		pos := bits.TrailingZeros8(m)
		if s := c.slotAt(b, pos); s.tag() == tag {
			if stored, _, ok := c.entry(s.off()); ok && stored == key {
				return pos
			}
		}
	}
	return c.freeOrVictim(b)
}

// freeOrVictim returns b's first free position, or, in a full bucket,
// its FIFO victim.
//
//herd:hotpath
func (c *Cache) freeOrVictim(b *bucket) int {
	if free := bits.TrailingZeros8(^b.used); free < c.cfg.BucketSlots {
		return free
	}
	return c.victim(b)
}

// victim advances b's FIFO eviction counter and returns the position it
// displaces.
//
//herd:hotpath
func (c *Cache) victim(b *bucket) int {
	v := int(b.victim)
	b.victim = uint8((v + 1) % c.cfg.BucketSlots)
	c.stats.IndexEvictions++
	return v
}

// slotNewer is slotFor for a stamped value, or -1 when key's stored
// entry carries a stamp that value's does not outrank. The one scan
// both compares and places, and it treats a
// tag match that is not key as Get does: an entry the log has
// overwritten frees its slot, any other is a tag false positive. So the
// index ends as after the Get of the stored stamp and the Put it
// replaces.
//
//herd:hotpath
func (c *Cache) slotNewer(b *bucket, tag uint16, key Key, value []byte) int {
	nv, _, _, _ := kv.SplitVersion(value)
	for m := b.used; m != 0; m &= m - 1 {
		pos := bits.TrailingZeros8(m)
		s := c.slotAt(b, pos)
		if s.tag() != tag {
			continue
		}
		c.stats.MemAccesses++ // log entry read
		stored, old, ok := c.entry(s.off())
		if ok && stored == key {
			if ov, _, _, _ := kv.SplitVersion(old); !ov.Less(nv) {
				return -1
			}
			return pos
		}
		if c.head-s.off() > uint64(c.cfg.LogBytes) {
			c.stats.StaleIndexEntries++
			c.clearSlot(b, pos)
		} else {
			c.stats.TagFalsePositives++
		}
	}
	// A slot the scan cleared is free now, so the first free position
	// is the lowest of those and the ones that were free before it.
	return c.freeOrVictim(b)
}

// PutNewer is the ordered insert for version-stamped values
// (kv.AppendVersion): it stores value only if its stamp outranks the
// stored entry's, so replays, repair back-fills and duplicate retries
// apply idempotently in any order. A refused stamp neither appends nor
// indexes. It reports whether value was stored, and refuses what Put
// refuses, and a value too short to carry a stamp (kv.ErrUnstamped).
//
//herd:hotpath
func (c *Cache) PutNewer(key Key, value []byte) (bool, error) {
	if key.IsZero() {
		return false, ErrZeroKey
	}
	if len(value) > MaxValueSize {
		return false, ErrValueTooLarge
	}
	if len(value) < kv.VersionPrefixLen {
		return false, kv.ErrUnstamped
	}
	if c.loads != nil {
		c.await()
	}
	return c.putNewer(key, value), nil
}

// putNewer is PutNewer past its checks, which the loader also runs as
// LoadNewer's fallback near the log's first wrap.
//
//herd:hotpath
func (c *Cache) putNewer(key Key, value []byte) bool {
	if c.queued != 0 {
		c.settle()
	}
	i, tag := c.bucketOf(hash64(key))
	b := &c.buckets[i]
	c.stats.MemAccesses++ // bucket read/update
	pos := c.slotNewer(b, tag, key, value)
	if pos < 0 {
		return false
	}
	c.stats.Puts++
	c.setSlot(b, pos, makeSlot(tag, c.append(key, value)))
	return true
}

// Load is the bulk-load form of Put, with the same checks, result and
// Stats. It copies key and value into the partition's handoff batch,
// so the caller may reuse value, and returns. A full batch is applied
// on its own loader goroutine, after the partition's previous batch
// (Load waits for that one first, so one batch is in flight per
// partition). Get, Put, PutNewer, Range and Stats are the barrier:
// they wait for the loader and apply the partial batch first. A
// partition therefore applies its loads in call order, each as the
// sequential load below does, and partitions load in parallel. The
// barrier drops the batches, so each stretch of loads between barriers
// allocates its own: Load is for long streaks, such as a preload or a
// replay, and a lone key between reads costs less as a Put.
//
//herd:hotpath
func (c *Cache) Load(key Key, value []byte) error {
	if key.IsZero() {
		return ErrZeroKey
	}
	if len(value) > MaxValueSize {
		return ErrValueTooLarge
	}
	c.handOff(key, value, 0)
	return nil
}

// LoadNewer is the bulk-load form of PutNewer, as Load is of Put: it
// copies key and value into the handoff batch, and the loader applies
// the ordered insert, so the partition ends exactly as after the same
// PutNewer calls. LoadNewer reports only the checks PutNewer makes, not
// whether the stamp was accepted.
//
//herd:hotpath
func (c *Cache) LoadNewer(key Key, value []byte) error {
	if key.IsZero() {
		return ErrZeroKey
	}
	if len(value) > MaxValueSize {
		return ErrValueTooLarge
	}
	if len(value) < kv.VersionPrefixLen {
		return kv.ErrUnstamped
	}
	c.handOff(key, value, newerFlag)
	return nil
}

// handOff copies one checked load into the batch being filled. A batch
// with no room left for a maximal entry goes to a loader goroutine once
// the one before it is applied, and that one, emptied, takes its place.
//
//herd:hotpath
func (c *Cache) handOff(key Key, value []byte, flag uint16) {
	b := c.loads
	if b == nil {
		b = new(handoff) //lint:allow hotalloc — a load streak's first batch, dropped at the barrier
		c.loads = b
	}
	e := b.buf[b.n:]
	copy(e, key[:])
	binary.LittleEndian.PutUint16(e[KeySize:], uint16(len(value))|flag)
	b.n += entryHeader + copy(e[entryHeader:], value)
	if b.n <= handoffBytes-(entryHeader+MaxValueSize) {
		return
	}
	next := b.prev
	if next != nil {
		<-next.done
	} else {
		next = new(handoff) //lint:allow hotalloc — a load streak's second batch, dropped at the barrier
	}
	b.done = make(chan struct{}) //lint:allow hotalloc — one per handoff batch
	go c.loader(b)               //lint:allow hotalloc — one goroutine per handoff batch
	next.prev, next.done, next.n = b, nil, 0
	c.loads = next
}

// loader is a handoff batch's goroutine: it applies b, then closes
// b.done.
func (c *Cache) loader(b *handoff) {
	c.apply(b)
	close(b.done)
}

// await is the bulk-load barrier: it waits for the batch in flight,
// applies the partial batch and settles the queued inserts, and drops
// the loader state.
//
//herd:hotpath
func (c *Cache) await() {
	b := c.loads
	c.loads = nil
	if b.prev != nil {
		<-b.prev.done
	}
	c.apply(b)
	if c.queued != 0 {
		c.settle()
	}
}

// apply runs a handoff batch's loads in call order.
//
//herd:hotpath
func (c *Cache) apply(b *handoff) {
	for e := b.buf[:b.n]; len(e) > 0; {
		n := binary.LittleEndian.Uint16(e[KeySize:entryHeader])
		vlen := int(n &^ newerFlag)
		c.load(Key(e[:KeySize]), e[entryHeader:entryHeader+vlen], n&newerFlag != 0)
		e = e[entryHeader+vlen:]
	}
}

// load applies one checked Load, or LoadNewer if newer. It appends the
// log entry at once but queues the index insert; every loadBatch
// queued inserts are applied together by settle, which compares a
// newer insert's stamp and, if it refuses one, moves the batch's later
// entries down over it, so a refused stamp leaves no log bytes behind.
// Batching is exact only while the log has not wrapped, since Put's
// stale detection reads the head at scan time, so an append that could
// reach the end of the log's first lap falls back to put or putNewer.
//
//herd:hotpath
func (c *Cache) load(key Key, value []byte, newer bool) {
	if c.head+uint64(entryHeader+len(value)) > uint64(c.cfg.LogBytes) {
		if newer {
			c.putNewer(key, value)
		} else {
			c.put(key, value)
		}
		return
	}
	c.stats.Puts++ // for a newer insert, until settle refuses it
	b, tag := c.bucketOf(hash64(key))
	c.stats.MemAccesses++ // bucket read/update, in settle
	c.queue[c.queued] = pendingInsert{key: key, off: c.append(key, value), b: b, tag: tag, newer: newer}
	c.queued++
	if c.queued == loadBatch {
		c.settle()
	}
}

// settle applies the queued inserts in Load order, each exactly as Put
// (or, for LoadNewer, PutNewer) would have. It first reads every queued
// bucket: the loads are independent, so the CPU overlaps their misses,
// and the inserts that follow find their buckets in cache. The queued
// entries are the log's last, back to back, as no batch spans a wrap;
// each one after a refused stamp moves down over the refused bytes, and
// the head drops by them.
//
//herd:hotpath
func (c *Cache) settle() {
	q := c.queue[:c.queued]
	c.queued = 0
	t := c.touched
	for i := range q {
		t ^= c.slotAt(&c.buckets[q[i].b], 0)
	}
	c.touched = t
	var shift uint64 // bytes of the batch's refused entries so far
	for i := range q {
		p := &q[i]
		if shift != 0 {
			c.moveEntry(p.off, p.off-shift, c.queuedBytes(q, i))
		}
		off := p.off - shift
		b := &c.buckets[p.b]
		if !p.newer {
			c.setSlot(b, c.slotFor(b, p.tag, p.key), makeSlot(p.tag, off))
			continue
		}
		_, v, _ := c.entry(off)
		pos := c.slotNewer(b, p.tag, p.key, v)
		if pos < 0 {
			shift += c.queuedBytes(q, i)
			c.stats.Puts--
			c.stats.SequentialAppends--
			continue
		}
		c.setSlot(b, pos, makeSlot(p.tag, off))
	}
	c.head -= shift
}

// queuedBytes is the log size of queued entry i of q: the entries are
// back to back, so it runs up to the next one, or to the head.
//
//herd:hotpath
func (c *Cache) queuedBytes(q []pendingInsert, i int) uint64 {
	if i+1 < len(q) {
		return q[i+1].off - q[i].off
	}
	return c.head - q[i].off
}

// moveEntry copies the n-byte first-lap log entry at offset from down
// to offset to, in the segment to starts in; to <= from.
//
//herd:hotpath
func (c *Cache) moveEntry(from, to, n uint64) {
	copy(c.segs[to/segStride][to%segStride:], c.segs[from/segStride][from%segStride:][:n])
}

// Range calls fn for every live entry in the partition, in index-slot
// order (deterministic for a given history), until fn returns false.
// The value slice aliases the log and is valid only within the call.
// Range performs no timing-model accounting: it is a control-plane
// walk for migration and diagnostics, not a data-path operation.
func (c *Cache) Range(fn func(key Key, value []byte) bool) {
	if c.loads != nil {
		c.await()
	}
	for i := range c.buckets {
		b := &c.buckets[i]
		for m := b.used; m != 0; m &= m - 1 {
			key, value, ok := c.entry(c.slotAt(b, bits.TrailingZeros8(m)).off())
			if !ok || key.IsZero() {
				continue // overwritten by log wraparound
			}
			if !fn(key, value) {
				return
			}
		}
	}
}

// AccessesPerGet is the worst-case random-access count for a GET,
// AccessesPerPut for a PUT — inputs to the server CPU timing model
// (Section 4.1: "each GET requires up to two random memory lookups, and
// each PUT requires one").
const (
	AccessesPerGet = 2
	AccessesPerPut = 1
)

// Partition selects the EREW partition for key among n partitions, the
// keyhash sharding MICA and HERD use to give each core exclusive access.
//
//herd:hotpath
func Partition(key Key, n int) int {
	if n <= 1 {
		return 0
	}
	// The whole hash mod n: partitionSeed differs from bucketSeed, so
	// the partition is independent of the bucket index.
	return int(key.Hash64(partitionSeed) % uint64(n))
}
