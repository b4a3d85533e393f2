package kv

// SlabSize is the block a Slab cuts values from. A 4 KiB block holds
// at least four of the largest values (1 KB items), and keeps a client's
// partly used block small: a 64 KiB block costs a mux endpoint's pool
// of clients megabytes of heap for no fewer allocations per op.
const SlabSize = 4 << 10

// Slab hands out GET-hit values for Result.Value, cut from a shared
// block instead of one allocation each. Each value is cut once and
// capacity-clipped, so it belongs to the callback that receives it:
// writing into it or appending to it never reaches another value or
// the slab. A value the callback keeps pins its whole block. The zero
// value is ready to use.
type Slab struct{ free []byte }

// Copy returns a slab-backed copy of v, or nil for an empty v (as
// append([]byte(nil), v...) would).
func (s *Slab) Copy(v []byte) []byte {
	n := len(v)
	if n == 0 {
		return nil
	}
	if n > len(s.free) {
		if n > SlabSize {
			return append([]byte(nil), v...)
		}
		s.free = make([]byte, SlabSize)
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	copy(out, v)
	return out
}
