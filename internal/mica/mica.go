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
//     stale index entries are detected by offset distance.
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
	// BucketSlots is the bucket associativity.
	BucketSlots int
	// LogBytes is the circular log capacity.
	LogBytes int
}

// DefaultConfig mirrors the paper's per-process sizing (64 Mi keys,
// 4 GB log) scaled down by default for tests; experiments override.
func DefaultConfig() Config {
	return Config{IndexBuckets: 1 << 14, BucketSlots: 8, LogBytes: 1 << 22}
}

const entryHeader = KeySize + 2 // keyhash + value length

type slot struct {
	used bool
	tag  uint16
	off  uint64 // monotonic log offset of the entry
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
type Cache struct {
	cfg     Config
	mask    uint64
	slots   []slot // buckets * associativity, flat
	log     []byte
	head    uint64  // total bytes ever appended (monotonic)
	fifoPos []uint8 // next eviction victim per bucket (FIFO index policy)
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
	if cfg.BucketSlots < 1 {
		cfg.BucketSlots = 1
	}
	if cfg.LogBytes < 4*(entryHeader+MaxValueSize) {
		cfg.LogBytes = 4 * (entryHeader + MaxValueSize)
	}
	cfg.IndexBuckets = buckets
	return &Cache{
		cfg:     cfg,
		mask:    uint64(buckets - 1),
		slots:   make([]slot, buckets*cfg.BucketSlots),
		log:     make([]byte, cfg.LogBytes),
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

// entryAt reads the log entry at monotonic offset off, verifying it has
// not been overwritten by log wraparound.
//
//herd:hotpath
func (c *Cache) entryAt(off uint64, key Key) ([]byte, bool) {
	size := uint64(len(c.log))
	if off >= c.head || c.head-off > size {
		return nil, false
	}
	pos := off % size
	if pos+entryHeader > size {
		return nil, false
	}
	var stored Key
	copy(stored[:], c.log[pos:pos+KeySize])
	vlen := uint64(binary.LittleEndian.Uint16(c.log[pos+KeySize : pos+entryHeader]))
	if pos+entryHeader+vlen > size || c.head-off < entryHeader+vlen {
		return nil, false
	}
	if stored != key {
		return nil, false
	}
	return c.log[pos+entryHeader : pos+entryHeader+vlen], true
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
		if !s.used || s.tag != tag {
			continue
		}
		c.stats.MemAccesses++ // log entry read
		v, ok := c.entryAt(s.off, key)
		if !ok {
			// Either overwritten by the circular log or a tag collision.
			if c.head-s.off > uint64(len(c.log)) {
				c.stats.StaleIndexEntries++
				s.used = false
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
	size := uint64(len(c.log))
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
	copy(c.log[pos:], key[:])
	binary.LittleEndian.PutUint16(c.log[pos+KeySize:], uint16(len(value)))
	copy(c.log[pos+entryHeader:], value)
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
		s := &c.slots[base+i]
		if !s.used {
			if free < 0 {
				free = i
			}
			continue
		}
		if s.tag == tag {
			if _, same := c.entryAt(s.off, key); same {
				match = i
				break
			}
		}
	}
	off := c.append(key, value)
	switch {
	case match >= 0:
		c.slots[base+match].off = off
	case free >= 0:
		c.slots[base+free] = slot{used: true, tag: tag, off: off}
	default:
		// Full bucket: evict FIFO (the lossy index).
		v := int(c.fifoPos[base/c.cfg.BucketSlots]) % c.cfg.BucketSlots
		c.fifoPos[base/c.cfg.BucketSlots]++
		c.slots[base+v] = slot{used: true, tag: tag, off: off}
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
		if s.used && s.tag == tag {
			if _, ok := c.entryAt(s.off, key); ok {
				s.used = false
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
	size := uint64(len(c.log))
	for i := range c.slots {
		s := &c.slots[i]
		if !s.used {
			continue
		}
		if s.off >= c.head || c.head-s.off > size {
			continue // overwritten by log wraparound
		}
		pos := s.off % size
		if pos+entryHeader > size {
			continue
		}
		var key Key
		copy(key[:], c.log[pos:pos+KeySize])
		if key.IsZero() {
			continue
		}
		vlen := uint64(binary.LittleEndian.Uint16(c.log[pos+KeySize : pos+entryHeader]))
		if pos+entryHeader+vlen > size || c.head-s.off < entryHeader+vlen {
			continue
		}
		if !fn(key, c.log[pos+entryHeader:pos+entryHeader+vlen]) {
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
