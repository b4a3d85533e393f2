// Package kv holds the key type and hashing helpers shared by the
// key-value backends (MICA, cuckoo, hopscotch) and the workload
// generators.
package kv

import (
	"encoding/binary"
	"errors"
)

// KeySize is the keyhash size: HERD, Pilaf-em and FaRM-em all identify
// items by a 16-byte keyhash (SK = 16 throughout the paper's evaluation).
const KeySize = 16

// ErrZeroKey rejects the reserved all-zero keyhash: every backend's
// table uses it as the empty-slot marker (and HERD's request-polling
// protocol reserves it on the wire), so clients refuse it up front.
var ErrZeroKey = errors.New("kv: zero keyhash is reserved")

// ErrEmptyValue rejects a PUT with no value: no backend stores one (a
// zero LEN denotes a GET in HERD's slot format), so every client
// refuses it before issuing anything.
var ErrEmptyValue = errors.New("kv: PUT requires a non-empty value")

// ErrUnstamped rejects a value with no version stamp where the store
// orders values by their stamps (mica's PutNewer and LoadNewer, and a
// versioned HERD server): bytes shorter than VersionPrefixLen carry no
// version, so they could neither outrank nor lose to a stamped entry.
var ErrUnstamped = errors.New("kv: versioned value carries no stamp")

// Key is a 16-byte keyhash.
type Key [KeySize]byte

// IsZero reports whether the key is all zero. HERD reserves the zero
// keyhash for its request-polling protocol (Section 4.2).
func (k Key) IsZero() bool { return k == Key{} }

// mix64 is the splitmix64 finalizer, a fast high-quality bit mixer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Hash64 derives a 64-bit hash of the key under the given seed.
// Different seeds give (effectively) orthogonal hash functions, as
// cuckoo hashing requires.
func (k Key) Hash64(seed uint64) uint64 {
	lo := binary.LittleEndian.Uint64(k[:8])
	hi := binary.LittleEndian.Uint64(k[8:])
	return mix64(lo ^ mix64(hi+seed) ^ (seed * 0x9e3779b97f4a7c15))
}

// FromUint64 builds a well-mixed, never-zero keyhash from n — what a
// client library would produce by hashing an application key.
func FromUint64(n uint64) Key {
	var k Key
	binary.LittleEndian.PutUint64(k[:8], mix64(n)|1)
	binary.LittleEndian.PutUint64(k[8:], mix64(n+0x9e3779b97f4a7c15))
	return k
}

// Checksum64 returns a 64-bit checksum of data, used by Pilaf's
// self-verifying data structures.
func Checksum64(data []byte) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for _, b := range data {
		h ^= uint64(b)
		h *= 0x100000001b3
	}
	// Finalize so short inputs still differ widely.
	return mix64(h)
}
