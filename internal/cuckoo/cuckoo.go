// Package cuckoo implements Pilaf's hash table (Section 5.1.1): 3-1
// cuckoo hashing — three orthogonal hash functions, one slot per bucket —
// with self-verifying 32-byte buckets and a value extent.
//
// The table is laid out in caller-supplied byte slices so that, in the
// Pilaf emulation, buckets and extents live inside an RDMA-registered
// memory region and clients GET by READing and parsing raw bucket bytes,
// exactly as Pilaf clients do. Each bucket carries two 64-bit checksums
// (one over its own header, one over the extent entry it points to) so a
// client can detect torn reads under concurrent server-side PUTs.
//
// At Pilaf's operating point of 75% memory efficiency, a GET probes 1.6
// buckets on average; Stats exposes the measured average.
package cuckoo

import (
	"encoding/binary"
	"errors"

	"herdkv/internal/kv"
)

// BucketSize is the serialized bucket size; the paper assumes 32 bytes
// for alignment.
const BucketSize = 32

// K is the number of hash functions (3-1 cuckoo hashing).
const K = 3

// maxKicks bounds the cuckoo displacement walk before declaring the
// table full.
const maxKicks = 512

// Bucket layout within its 32 bytes:
//
//	[0:8]   key fragment (64-bit hash of the full key)
//	[8:12]  extent offset
//	[12:14] value length
//	[14:16] flags (bit 0: occupied)
//	[16:24] checksum over bytes [0:16]
//	[24:32] checksum over the extent entry (full key + value)
const (
	offFrag  = 0
	offPtr   = 8
	offVLen  = 12
	offFlags = 14
	offSum1  = 16
	offSum2  = 24
)

const fragSeed = 0x9137

// Errors returned by table operations.
var (
	ErrTableFull  = errors.New("cuckoo: displacement limit reached (table full)")
	ErrExtentFull = errors.New("cuckoo: extent exhausted")
	ErrValueSize  = errors.New("cuckoo: value too large")
)

// MaxValueSize bounds values, matching HERD's 1 KB item limit.
const MaxValueSize = 1000

// extent entries are key + length + value.
const extentHeader = kv.KeySize + 2

// Bucket is a parsed, verified bucket.
type Bucket struct {
	Frag     uint64
	Ptr      uint32
	VLen     uint16
	Occupied bool
	Sum2     uint64
}

// ParseBucket decodes raw (>= BucketSize bytes) and verifies the header
// checksum. ok is false for an empty slot or a torn/corrupt read — the
// self-verification Pilaf clients perform after each bucket READ.
func ParseBucket(raw []byte) (Bucket, bool) {
	if len(raw) < BucketSize {
		return Bucket{}, false
	}
	flags := binary.LittleEndian.Uint16(raw[offFlags:])
	if flags&1 == 0 {
		return Bucket{}, false
	}
	if kv.Checksum64(raw[:offSum1]) != binary.LittleEndian.Uint64(raw[offSum1:]) {
		return Bucket{}, false
	}
	return Bucket{
		Frag:     binary.LittleEndian.Uint64(raw[offFrag:]),
		Ptr:      binary.LittleEndian.Uint32(raw[offPtr:]),
		VLen:     binary.LittleEndian.Uint16(raw[offVLen:]),
		Occupied: true,
		Sum2:     binary.LittleEndian.Uint64(raw[offSum2:]),
	}, true
}

// Frag returns the key fragment stored in buckets for key.
func Frag(key kv.Key) uint64 { return key.Hash64(fragSeed) }

// VerifyExtentEntry checks a raw extent entry READ by a client against
// the key and the bucket's entry checksum, returning the value bytes.
func VerifyExtentEntry(raw []byte, key kv.Key, b Bucket) ([]byte, bool) {
	need := extentHeader + int(b.VLen)
	if len(raw) < need {
		return nil, false
	}
	if kv.Checksum64(raw[:need]) != b.Sum2 {
		return nil, false
	}
	var stored kv.Key
	copy(stored[:], raw[:kv.KeySize])
	if stored != key {
		return nil, false
	}
	if int(binary.LittleEndian.Uint16(raw[kv.KeySize:])) != int(b.VLen) {
		return nil, false
	}
	return raw[extentHeader:need], true
}

// EntryBytes returns the extent entry size for a value of n bytes.
func EntryBytes(n int) int { return extentHeader + n }

// Stats counts table activity.
type Stats struct {
	Inserts, Lookups uint64
	Hits             uint64
	Kicks            uint64 // cuckoo displacements performed
	Probes           uint64 // buckets examined across all lookups
}

// Table is a cuckoo hash table over caller-owned memory.
type Table struct {
	buckets  []byte // nBuckets * BucketSize
	extent   []byte
	nBuckets int
	extHead  int
	seeds    [K]uint64
	stats    Stats
}

// New builds a table over bucketMem (capacity nBuckets*BucketSize) and
// extentMem. The slices may alias an RDMA memory region.
func New(bucketMem, extentMem []byte, nBuckets int) *Table {
	if nBuckets < 1 || len(bucketMem) < nBuckets*BucketSize {
		panic("cuckoo: bucket memory too small")
	}
	return &Table{
		buckets:  bucketMem,
		extent:   extentMem,
		nBuckets: nBuckets,
		seeds:    [K]uint64{0x51ed, 0xbead, 0xfeed},
	}
}

// BucketIndices returns the K candidate buckets for key, in probe order.
// Clients use this to compute READ targets.
func (t *Table) BucketIndices(key kv.Key) [K]int {
	var out [K]int
	for i := 0; i < K; i++ {
		out[i] = int(key.Hash64(t.seeds[i]) % uint64(t.nBuckets))
	}
	return out
}

// BucketOffset returns the byte offset of bucket i within the bucket
// memory (and hence within the MR it occupies).
func (t *Table) BucketOffset(i int) int { return i * BucketSize }

// ExtentOffset converts a bucket's Ptr into a byte offset within the
// extent memory.
func ExtentOffset(ptr uint32) int { return int(ptr) }

func (t *Table) rawBucket(i int) []byte {
	return t.buckets[i*BucketSize : (i+1)*BucketSize]
}

func (t *Table) writeBucket(i int, frag uint64, ptr uint32, vlen uint16, sum2 uint64) {
	raw := t.rawBucket(i)
	binary.LittleEndian.PutUint64(raw[offFrag:], frag)
	binary.LittleEndian.PutUint32(raw[offPtr:], ptr)
	binary.LittleEndian.PutUint16(raw[offVLen:], vlen)
	binary.LittleEndian.PutUint16(raw[offFlags:], 1)
	binary.LittleEndian.PutUint64(raw[offSum1:], kv.Checksum64(raw[:offSum1]))
	binary.LittleEndian.PutUint64(raw[offSum2:], sum2)
}

// appendExtent writes key+value into the extent, returning its pointer
// and entry checksum.
func (t *Table) appendExtent(key kv.Key, value []byte) (uint32, uint64, error) {
	need := EntryBytes(len(value))
	if t.extHead+need > len(t.extent) {
		return 0, 0, ErrExtentFull
	}
	pos := t.extHead
	copy(t.extent[pos:], key[:])
	binary.LittleEndian.PutUint16(t.extent[pos+kv.KeySize:], uint16(len(value)))
	copy(t.extent[pos+extentHeader:], value)
	t.extHead += need
	return uint32(pos), kv.Checksum64(t.extent[pos : pos+need]), nil
}

// keyOfBucket reads the full key of the entry bucket i points at.
func (t *Table) keyOfBucket(i int) kv.Key {
	raw := t.rawBucket(i)
	ptr := binary.LittleEndian.Uint32(raw[offPtr:])
	var k kv.Key
	copy(k[:], t.extent[ptr:ptr+kv.KeySize])
	return k
}

func (t *Table) occupied(i int) bool {
	return binary.LittleEndian.Uint16(t.rawBucket(i)[offFlags:])&1 == 1
}

// Lookup finds key server-side, probing candidate buckets in order.
func (t *Table) Lookup(key kv.Key) ([]byte, bool) {
	t.stats.Lookups++
	frag := Frag(key)
	for _, idx := range t.BucketIndices(key) {
		t.stats.Probes++
		b, ok := ParseBucket(t.rawBucket(idx))
		if !ok || b.Frag != frag {
			continue
		}
		pos := ExtentOffset(b.Ptr)
		v, ok := VerifyExtentEntry(t.extent[pos:], key, b)
		if ok {
			t.stats.Hits++
			return v, true
		}
	}
	return nil, false
}

// Insert adds or updates key. A full displacement walk returns
// ErrTableFull; extent exhaustion returns ErrExtentFull. Updates append
// a fresh extent entry (extents are log-structured; Pilaf's evaluation
// likewise ignores extent GC).
func (t *Table) Insert(key kv.Key, value []byte) error {
	if len(value) > MaxValueSize {
		return ErrValueSize
	}
	t.stats.Inserts++
	frag := Frag(key)
	idxs := t.BucketIndices(key)

	// Update in place if present.
	for _, idx := range idxs {
		if !t.occupied(idx) {
			continue
		}
		b, ok := ParseBucket(t.rawBucket(idx))
		if ok && b.Frag == frag && t.keyOfBucket(idx) == key {
			ptr, sum2, err := t.appendExtent(key, value)
			if err != nil {
				return err
			}
			t.writeBucket(idx, frag, ptr, uint16(len(value)), sum2)
			return nil
		}
	}
	// Empty candidate?
	for _, idx := range idxs {
		if !t.occupied(idx) {
			ptr, sum2, err := t.appendExtent(key, value)
			if err != nil {
				return err
			}
			t.writeBucket(idx, frag, ptr, uint16(len(value)), sum2)
			return nil
		}
	}
	// Cuckoo displacement: kick the occupant of the first candidate along
	// a random-ish walk until a hole opens.
	ptr, sum2, err := t.appendExtent(key, value)
	if err != nil {
		return err
	}
	curFrag, curPtr, curVLen, curSum2 := frag, ptr, uint16(len(value)), sum2
	curKey := key
	idx := idxs[key.Hash64(0xabcd)%K]
	for kick := 0; kick < maxKicks; kick++ {
		// Swap current item with the occupant.
		raw := t.rawBucket(idx)
		vFrag := binary.LittleEndian.Uint64(raw[offFrag:])
		vPtr := binary.LittleEndian.Uint32(raw[offPtr:])
		vVLen := binary.LittleEndian.Uint16(raw[offVLen:])
		vSum2 := binary.LittleEndian.Uint64(raw[offSum2:])
		vKey := t.keyOfBucket(idx)

		t.writeBucket(idx, curFrag, curPtr, curVLen, curSum2)
		t.stats.Kicks++

		curFrag, curPtr, curVLen, curSum2, curKey = vFrag, vPtr, vVLen, vSum2, vKey

		// Move the displaced item to one of its other candidates.
		alt := t.BucketIndices(curKey)
		next := alt[(kick+1)%K]
		if next == idx {
			next = alt[(kick+2)%K]
		}
		if !t.occupied(next) {
			t.writeBucket(next, curFrag, curPtr, curVLen, curSum2)
			return nil
		}
		idx = next
	}
	// Give up: restore nothing (the displaced item is dropped); report
	// full so callers can resize. The table stays self-consistent.
	t.writeBucket(idx, curFrag, curPtr, curVLen, curSum2)
	return ErrTableFull
}
