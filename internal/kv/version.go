package kv

import "encoding/binary"

// Version orders conflicting replica states. Epoch is the issuing
// client's virtual clock (sim.Time as int64 picoseconds) at the moment
// the write was stamped; Seq breaks ties between writes stamped in the
// same instant (per-client counter in the high bits, client id in the
// low bits, so two clients can never mint the same stamp). Comparison
// is lexicographic on (Epoch, Seq): because every client reads the same
// virtual clock, a write that strictly happens-after another always
// carries the larger stamp, which is what lets replicas apply updates
// in any order and still converge (last-writer-wins with a total
// order).
type Version struct {
	Epoch int64
	Seq   uint64
}

// Compare returns -1, 0, or +1 as v orders before, equal to, or after o.
func (v Version) Compare(o Version) int {
	if v.Epoch != o.Epoch {
		if v.Epoch < o.Epoch {
			return -1
		}
		return 1
	}
	if v.Seq != o.Seq {
		if v.Seq < o.Seq {
			return -1
		}
		return 1
	}
	return 0
}

// Less reports whether v orders strictly before o.
func (v Version) Less(o Version) bool { return v.Compare(o) < 0 }

// VersionPrefixLen is the size of the stamp prepended to every stored
// value when versioned replication is on: [epoch 8][seq 8][flags 1].
// The prefix travels inside the ordinary HERD value bytes, so the wire
// format, MICA layout, and WAL records all carry it without change.
const VersionPrefixLen = 8 + 8 + 1

// versionFlagTombstone is the flags bit that marks a stamp as a
// deletion tombstone. The fleet writes only live values, and its
// replicas rank a tombstoned stamp like any other.
const versionFlagTombstone = 0x01

// AppendVersion appends the 17-byte stamp for (v, tombstone) to dst and
// returns the extended slice. The value payload follows the prefix.
func AppendVersion(dst []byte, v Version, tombstone bool) []byte {
	var buf [VersionPrefixLen]byte
	binary.LittleEndian.PutUint64(buf[0:8], uint64(v.Epoch))
	binary.LittleEndian.PutUint64(buf[8:16], v.Seq)
	if tombstone {
		buf[16] = versionFlagTombstone
	}
	return append(dst, buf[:]...)
}

// SplitVersion decodes the stamp from a stored value. It returns the
// version, whether the entry is a tombstone, the payload that follows
// the prefix, and ok=false when the buffer is too short to carry a
// stamp (callers treat such values as unversioned legacy data).
func SplitVersion(stored []byte) (v Version, tombstone bool, payload []byte, ok bool) {
	if len(stored) < VersionPrefixLen {
		return Version{}, false, nil, false
	}
	v.Epoch = int64(binary.LittleEndian.Uint64(stored[0:8]))
	v.Seq = binary.LittleEndian.Uint64(stored[8:16])
	tombstone = stored[16]&versionFlagTombstone != 0
	return v, tombstone, stored[VersionPrefixLen:], true
}
