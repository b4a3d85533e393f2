// Package hopscotch implements FaRM-KV's hash table (Section 5.1.2): a
// hopscotch variant guaranteeing every key is stored within a small
// neighborhood of its home bucket, so a GET needs only one READ of the
// whole neighborhood.
//
// Two modes match the paper's comparisons:
//
//   - Inline (FaRM-em): fixed-size values stored in the slots; a GET is a
//     single READ of H*(SK+SV) bytes.
//   - Out-of-table (FaRM-em-VAR): slots hold a pointer (and length); a
//     GET READs H*(SK+SP) bytes, then the value separately.
//
// As with package cuckoo, the table lives in caller-supplied memory so
// the FaRM emulation can place it in an RDMA region and let clients
// parse raw neighborhood bytes fetched by READ. Empty slots are
// identified by the all-zero keyhash, which the workload never uses.
package hopscotch

import (
	"encoding/binary"
	"errors"

	"herdkv/internal/kv"
)

// DefaultH is the paper's neighborhood size ("its authors set it to 6").
const DefaultH = 6

// PtrSlotSize is the slot size in out-of-table mode: key + 4-byte
// pointer + 2-byte length + 2 bytes padding = SK + SP with SP = 8.
const PtrSlotSize = kv.KeySize + 8

// maxSearch bounds the linear probe for an empty slot during insertion.
const maxSearch = 4096

// Errors returned by table operations.
var (
	ErrTableFull  = errors.New("hopscotch: no slot reachable within the neighborhood")
	ErrExtentFull = errors.New("hopscotch: extent exhausted")
	ErrValueSize  = errors.New("hopscotch: value size does not fit the table mode")
)

// Mode selects inline or out-of-table values.
type Mode int

// Table modes.
const (
	Inline Mode = iota
	OutOfTable
)

// Table is a hopscotch hash table over caller-owned memory.
type Table struct {
	mem      []byte
	nBuckets int
	h        int
	mode     Mode
	valSize  int // Inline mode: exact value size
	extent   []byte
	extHead  int
	seed     uint64

	inserts, hops uint64
}

// NewInline builds an inline-value table: nBuckets home buckets (plus H
// overflow slots at the tail so neighborhoods never wrap), each slot
// holding a key and exactly valSize value bytes.
func NewInline(mem []byte, nBuckets, valSize, h int) *Table {
	if h < 1 {
		h = DefaultH
	}
	slot := kv.KeySize + valSize
	if nBuckets < 1 || len(mem) < (nBuckets+h)*slot {
		panic("hopscotch: memory too small for inline table")
	}
	return &Table{mem: mem, nBuckets: nBuckets, h: h, mode: Inline, valSize: valSize, seed: 0x5c0f}
}

// NewVar builds an out-of-table table whose slots point into extent.
func NewVar(mem, extent []byte, nBuckets, h int) *Table {
	if h < 1 {
		h = DefaultH
	}
	if nBuckets < 1 || len(mem) < (nBuckets+h)*PtrSlotSize {
		panic("hopscotch: memory too small for out-of-table table")
	}
	return &Table{mem: mem, nBuckets: nBuckets, h: h, mode: OutOfTable, extent: extent, seed: 0x5c0f}
}

// SlotSize returns the serialized slot size.
func (t *Table) SlotSize() int {
	if t.mode == Inline {
		return kv.KeySize + t.valSize
	}
	return PtrSlotSize
}

// NeighborhoodBytes is the size of the READ a client issues for a GET:
// H slots (the paper's 6*(SK+SV) or 6*(SK+SP)).
func (t *Table) NeighborhoodBytes() int { return t.h * t.SlotSize() }

// Home returns key's home bucket.
func (t *Table) Home(key kv.Key) int {
	return int(key.Hash64(t.seed) % uint64(t.nBuckets))
}

// NeighborhoodOffset returns the byte range a client READs for key.
func (t *Table) NeighborhoodOffset(key kv.Key) (off, n int) {
	return t.Home(key) * t.SlotSize(), t.NeighborhoodBytes()
}

func (t *Table) slot(i int) []byte {
	s := t.SlotSize()
	return t.mem[i*s : (i+1)*s]
}

func (t *Table) slotKey(i int) kv.Key {
	var k kv.Key
	copy(k[:], t.slot(i)[:kv.KeySize])
	return k
}

func (t *Table) slotEmpty(i int) bool { return t.slotKey(i).IsZero() }

func (t *Table) totalSlots() int { return t.nBuckets + t.h }

func (t *Table) writeInline(i int, key kv.Key, value []byte) {
	raw := t.slot(i)
	copy(raw, key[:])
	copy(raw[kv.KeySize:], value)
}

func (t *Table) writeVar(i int, key kv.Key, ptr uint32, vlen uint16) {
	raw := t.slot(i)
	copy(raw, key[:])
	binary.LittleEndian.PutUint32(raw[kv.KeySize:], ptr)
	binary.LittleEndian.PutUint16(raw[kv.KeySize+4:], vlen)
}

func (t *Table) clearSlot(i int) {
	raw := t.slot(i)
	for j := range raw {
		raw[j] = 0
	}
}

// findSlot returns the slot index holding key, or -1.
func (t *Table) findSlot(key kv.Key) int {
	home := t.Home(key)
	for i := home; i < home+t.h; i++ {
		if t.slotKey(i) == key {
			return i
		}
	}
	return -1
}

// Lookup finds key server-side.
func (t *Table) Lookup(key kv.Key) ([]byte, bool) {
	i := t.findSlot(key)
	if i < 0 {
		return nil, false
	}
	raw := t.slot(i)
	if t.mode == Inline {
		return raw[kv.KeySize:], true
	}
	ptr := binary.LittleEndian.Uint32(raw[kv.KeySize:])
	vlen := int(binary.LittleEndian.Uint16(raw[kv.KeySize+4:]))
	return t.extent[ptr : int(ptr)+vlen], true
}

// Insert adds or updates key. The hopscotch guarantee is maintained:
// after a successful insert, key resides within H slots of its home.
func (t *Table) Insert(key kv.Key, value []byte) error {
	if key.IsZero() {
		return errors.New("hopscotch: zero keyhash is reserved")
	}
	if t.mode == Inline && len(value) != t.valSize {
		return ErrValueSize
	}
	if t.mode == OutOfTable && len(value) > 65535 {
		return ErrValueSize
	}

	// Update in place.
	if i := t.findSlot(key); i >= 0 {
		return t.place(i, key, value)
	}

	home := t.Home(key)
	limit := home + maxSearch
	if limit > t.totalSlots() {
		limit = t.totalSlots()
	}
	// Try each empty slot at or after home in turn: the classic algorithm
	// uses only the first, but when that empty cannot be hopped into the
	// neighborhood a later one often can, which raises the achievable
	// load factor noticeably for small H.
	for scan := home; scan < limit; scan++ {
		if !t.slotEmpty(scan) {
			continue
		}
		if empty, ok := t.hopToward(home, scan); ok {
			return t.place(empty, key, value)
		}
	}
	return ErrTableFull
}

// hopToward moves the empty slot at index empty into [home, home+H) by
// relocating occupants within their own neighborhoods. Every individual
// move preserves the hopscotch invariant, so a failed attempt leaves the
// table valid (with the empty slot stranded closer to home).
func (t *Table) hopToward(home, empty int) (int, bool) {
	for empty-home >= t.h {
		moved := false
		for j := empty - t.h + 1; j < empty; j++ {
			if j < 0 {
				continue
			}
			occKey := t.slotKey(j)
			if occKey.IsZero() {
				continue
			}
			if empty-t.Home(occKey) < t.h {
				copy(t.slot(empty), t.slot(j))
				t.clearSlot(j)
				t.hops++
				empty = j
				moved = true
				break
			}
		}
		if !moved {
			return empty, false
		}
	}
	return empty, true
}

// place writes key/value into slot i.
func (t *Table) place(i int, key kv.Key, value []byte) error {
	if t.mode == Inline {
		t.writeInline(i, key, value)
		return nil
	}
	need := len(value)
	if t.extHead+need > len(t.extent) {
		return ErrExtentFull
	}
	ptr := uint32(t.extHead)
	copy(t.extent[t.extHead:], value)
	t.extHead += need
	t.writeVar(i, key, ptr, uint16(len(value)))
	t.inserts++
	return nil
}

// ParseNeighborhoodInline scans raw neighborhood bytes (as READ by a
// FaRM-em client) for key, returning the inline value.
func ParseNeighborhoodInline(raw []byte, key kv.Key, valSize int) ([]byte, bool) {
	slot := kv.KeySize + valSize
	for off := 0; off+slot <= len(raw); off += slot {
		var k kv.Key
		copy(k[:], raw[off:off+kv.KeySize])
		if k == key {
			return raw[off+kv.KeySize : off+slot], true
		}
	}
	return nil, false
}

// ParseNeighborhoodVar scans raw neighborhood bytes (FaRM-em-VAR client)
// for key, returning the extent pointer and value length.
func ParseNeighborhoodVar(raw []byte, key kv.Key) (ptr uint32, vlen uint16, ok bool) {
	for off := 0; off+PtrSlotSize <= len(raw); off += PtrSlotSize {
		var k kv.Key
		copy(k[:], raw[off:off+kv.KeySize])
		if k == key {
			return binary.LittleEndian.Uint32(raw[off+kv.KeySize:]),
				binary.LittleEndian.Uint16(raw[off+kv.KeySize+4:]), true
		}
	}
	return 0, 0, false
}
