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
package mica

import (
	"encoding/binary"
	"errors"

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
	ErrZeroKey       = errors.New("mica: zero keyhash is reserved")
)

// Config sizes a cache partition.
type Config struct {
	// IndexBuckets is the number of index buckets (rounded up to a power
	// of two).
	IndexBuckets int
	// BucketSlots is the bucket associativity, at most 256.
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

// maxBucketSlots caps BucketSlots: each bucket's FIFO victim counter
// is one byte.
const maxBucketSlots = 256

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

// used reports whether the slot holds an entry.
//
//herd:hotpath
func (s slot) used() bool { return s != 0 }

// tag returns a used slot's keyhash tag.
//
//herd:hotpath
func (s slot) tag() uint16 { return uint16(s >> offBits) }

// off returns a used slot's monotonic log offset.
//
//herd:hotpath
func (s slot) off() uint64 { return uint64(s&offMask) - 1 }

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
type Cache struct {
	cfg     Config
	mask    uint64
	slots   []slot   // buckets * associativity, flat
	segs    [][]byte // log segments, nil until the head first reaches one
	head    uint64   // total bytes ever appended (monotonic)
	fifoPos []uint8  // next eviction victim per bucket, in [0, BucketSlots)
	stats   Stats
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
	return &Cache{
		cfg:     cfg,
		mask:    uint64(buckets - 1),
		slots:   make([]slot, buckets*cfg.BucketSlots),
		segs:    make([][]byte, (cfg.LogBytes+segStride-1)/segStride),
		fifoPos: make([]uint8, buckets),
	}
}

// Config returns the (normalized) configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// bucketOf maps a keyhash to its bucket's slot base and tag.
//
//herd:hotpath
func (c *Cache) bucketOf(h uint64) (base int, tag uint16) {
	return int(h&c.mask) * c.cfg.BucketSlots, uint16(h >> 48)
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
	c.stats.Gets++
	if key.IsZero() {
		return nil, false
	}
	h := hash64(key)
	base, tag := c.bucketOf(h)
	c.stats.MemAccesses++ // bucket read
	for i := 0; i < c.cfg.BucketSlots; i++ {
		s := &c.slots[base+i]
		if !s.used() || s.tag() != tag {
			continue
		}
		c.stats.MemAccesses++ // log entry read
		stored, v, ok := c.entry(s.off())
		if !ok || stored != key {
			// Either overwritten by the circular log or a tag collision.
			if c.head-s.off() > uint64(c.cfg.LogBytes) {
				c.stats.StaleIndexEntries++
				*s = 0
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
	c.stats.Puts++
	h := hash64(key)
	base, tag := c.bucketOf(h)
	c.stats.MemAccesses++ // bucket read/update

	// Locate the destination slot first. Tags are partial hashes, so a
	// tag match must be confirmed against the full keyhash stored in the
	// log before reusing the slot — otherwise two distinct keys sharing
	// a tag would silently merge.
	match, free := -1, -1
	for i := 0; i < c.cfg.BucketSlots; i++ {
		s := c.slots[base+i]
		if !s.used() {
			if free < 0 {
				free = i
			}
			continue
		}
		if s.tag() == tag {
			if stored, _, ok := c.entry(s.off()); ok && stored == key {
				match = i
				break
			}
		}
	}
	s := makeSlot(tag, c.append(key, value))
	switch {
	case match >= 0:
		c.slots[base+match] = s
	case free >= 0:
		c.slots[base+free] = s
	default:
		// Full bucket: evict FIFO (the lossy index).
		b := base / c.cfg.BucketSlots
		v := int(c.fifoPos[b])
		c.fifoPos[b] = uint8((v + 1) % c.cfg.BucketSlots)
		c.slots[base+v] = s
		c.stats.IndexEvictions++
	}
	return nil
}

// Delete removes key from the index. It returns whether the key was
// present.
//
//herd:hotpath
func (c *Cache) Delete(key Key) bool {
	if key.IsZero() {
		return false
	}
	h := hash64(key)
	base, tag := c.bucketOf(h)
	c.stats.MemAccesses++
	for i := 0; i < c.cfg.BucketSlots; i++ {
		s := &c.slots[base+i]
		if s.used() && s.tag() == tag {
			if stored, _, ok := c.entry(s.off()); ok && stored == key {
				*s = 0
				return true
			}
		}
	}
	return false
}

// Range calls fn for every live entry in the partition, in index-slot
// order (deterministic for a given history), until fn returns false.
// The value slice aliases the log and is valid only within the call.
// Range performs no timing-model accounting: it is a control-plane
// walk for migration and diagnostics, not a data-path operation.
func (c *Cache) Range(fn func(key Key, value []byte) bool) {
	for _, s := range c.slots {
		if !s.used() {
			continue
		}
		key, value, ok := c.entry(s.off())
		if !ok || key.IsZero() {
			continue // overwritten by log wraparound
		}
		if !fn(key, value) {
			return
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
	// Use the upper hash bits so partitioning is independent of the
	// bucket index bits.
	return int(key.Hash64(partitionSeed) % uint64(n))
}
