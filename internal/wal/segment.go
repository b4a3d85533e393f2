package wal

import "encoding/binary"

// segSize is the capacity of one storage segment. No frame straddles
// two segments, so a segment must hold the largest frame (2 bytes of
// length plus a math.MaxUint16-byte payload); 256 KiB holds four.
const segSize = 256 << 10

// segments is a stream of frames stored as a chain of fixed-size
// segments: the durable log, or one snapshot. A frame is copied once,
// into the last segment, and a frame that does not fit there starts a
// new one, so growing the stream never moves bytes already stored, and
// dropping a prefix releases whole segments. Every frame lies wholly
// inside one segment, so walks and truncation run segment by segment.
type segments struct {
	segs [][]byte
	n    int // bytes stored, summed over segs
}

// fit returns the index of the segment the next n-byte frame goes
// into: the last segment if it has room, otherwise a new one.
//
//herd:hotpath
func (s *segments) fit(n int) int {
	if k := len(s.segs); k > 0 && len(s.segs[k-1])+n <= cap(s.segs[k-1]) {
		return k - 1
	}
	seg := make([]byte, 0, segSize) //lint:allow hotalloc — one segment per segSize bytes logged, amortized like a slice's growth
	s.segs = append(s.segs, seg)
	return len(s.segs) - 1
}

// add encodes r as one frame at the stream's end.
func (s *segments) add(r Record) {
	n := 2 + recFixed + len(r.Value) + recSum
	i := s.fit(n)
	s.segs[i] = appendRecord(s.segs[i], r)
	s.n += n
}

// addFrames copies buf's encoded frames to the stream's end, each
// frame whole into one segment. buf's final frame may be cut short (a
// torn device write): its bytes go where the whole frame would have,
// so a torn tail only ever sits in the last segment.
//
//herd:hotpath
func (s *segments) addFrames(buf []byte) {
	for len(buf) > 0 {
		frame, have := len(buf), len(buf)
		if have >= 2 {
			frame = 2 + int(binary.LittleEndian.Uint16(buf))
			have = min(frame, have)
		}
		i := s.fit(frame)
		s.segs[i] = append(s.segs[i], buf[:have]...)
		s.n += have
		buf = buf[have:]
	}
}

// walk calls fn with each frame of the stream's longest clean prefix,
// in order, and returns that prefix's byte length. Frames alias the
// segments.
func (s *segments) walk(fn func(frame []byte)) (clean int) {
	for _, seg := range s.segs {
		n := walkFrames(seg, fn)
		clean += n
		if n < len(seg) {
			break
		}
	}
	return clean
}

// decode returns the records of the stream's longest clean prefix and
// that prefix's byte length.
func (s *segments) decode() (recs []Record, clean int) {
	clean = s.walk(func(f []byte) { recs = append(recs, decodeFrame(f)) })
	return recs, clean
}

// truncate keeps the stream's first n bytes. Segments past the cut are
// released; the segment it falls inside keeps its capacity, so the next
// frame overwrites the bytes cut off.
func (s *segments) truncate(n int) {
	s.n = n
	for i, seg := range s.segs {
		if n <= len(seg) {
			s.segs[i] = seg[:n]
			clear(s.segs[i+1:])
			s.segs = s.segs[:i+1]
			return
		}
		n -= len(seg)
	}
}

// drop removes the stream's first n bytes, which end on a frame
// boundary. Segments wholly inside them are released, and the rest of
// the one segment the cut falls inside is copied into a segment of
// exactly its size, so no dropped byte stays reachable.
func (s *segments) drop(n int) {
	s.n -= n
	i := 0
	for i < len(s.segs) && n >= len(s.segs[i]) {
		n -= len(s.segs[i])
		i++
	}
	if n > 0 {
		rest := make([]byte, len(s.segs[i])-n)
		copy(rest, s.segs[i][n:])
		s.segs[i] = rest
	}
	k := copy(s.segs, s.segs[i:])
	clear(s.segs[k:])
	s.segs = s.segs[:k]
}
