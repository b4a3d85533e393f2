package hopscotch

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"herdkv/internal/kv"
)

func newInline(n, valSize int) *Table {
	return NewInline(make([]byte, (n+DefaultH)*(kv.KeySize+valSize)), n, valSize, DefaultH)
}

func newVar(n, extentBytes int) *Table {
	return NewVar(make([]byte, (n+DefaultH)*PtrSlotSize), make([]byte, extentBytes), n, DefaultH)
}

func val32(b byte) []byte { return bytes.Repeat([]byte{b}, 32) }

func TestInlineInsertLookup(t *testing.T) {
	tb := newInline(1024, 32)
	k := kv.FromUint64(1)
	if err := tb.Insert(k, val32(7)); err != nil {
		t.Fatal(err)
	}
	v, ok := tb.Lookup(k)
	if !ok || !bytes.Equal(v, val32(7)) {
		t.Fatalf("Lookup = %v, %v", v, ok)
	}
}

func TestInlineSizeStrict(t *testing.T) {
	tb := newInline(64, 32)
	if err := tb.Insert(kv.FromUint64(1), make([]byte, 16)); err != ErrValueSize {
		t.Fatalf("wrong-size insert: %v", err)
	}
}

func TestVarInsertLookup(t *testing.T) {
	tb := newVar(1024, 1<<20)
	k := kv.FromUint64(2)
	if err := tb.Insert(k, []byte("variable length value")); err != nil {
		t.Fatal(err)
	}
	v, ok := tb.Lookup(k)
	if !ok || string(v) != "variable length value" {
		t.Fatalf("Lookup = %q, %v", v, ok)
	}
}

func TestUpdate(t *testing.T) {
	tb := newInline(1024, 32)
	k := kv.FromUint64(3)
	tb.Insert(k, val32(1))
	tb.Insert(k, val32(2))
	v, _ := tb.Lookup(k)
	if !bytes.Equal(v, val32(2)) {
		t.Fatal("update not visible")
	}
}

func TestZeroKeyRejected(t *testing.T) {
	tb := newInline(64, 32)
	if err := tb.Insert(kv.Key{}, val32(0)); err == nil {
		t.Fatal("zero key accepted")
	}
}

func TestNeighborhoodGuarantee(t *testing.T) {
	// The hopscotch invariant: every key resides within H slots of its
	// home bucket — what makes single-READ GETs possible.
	// H=6 is a small neighborhood (the paper picks it to keep READs
	// small, trading peak load factor); 40% fill is comfortably inside
	// its operating range for single-slot buckets.
	tb := newInline(2048, 32)
	n := 2048 * 40 / 100
	for i := 0; i < n; i++ {
		k := kv.FromUint64(uint64(i))
		if err := tb.Insert(k, val32(byte(i))); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		k := kv.FromUint64(uint64(i))
		s := tb.findSlot(k)
		if s < 0 {
			t.Fatalf("key %d lost", i)
		}
		if d := s - tb.Home(k); d < 0 || d >= tb.h {
			t.Fatalf("key %d at distance %d, violates H=%d", i, d, tb.h)
		}
	}
	if tb.hops == 0 {
		t.Fatal("80% fill should have required displacement hops")
	}
}

func TestClientParseInline(t *testing.T) {
	// A FaRM-em client READs the neighborhood bytes and parses them.
	tb := newInline(512, 32)
	k := kv.FromUint64(9)
	tb.Insert(k, val32(9))
	off, n := tb.NeighborhoodOffset(k)
	raw := tb.mem[off : off+n]
	v, ok := ParseNeighborhoodInline(raw, k, 32)
	if !ok || !bytes.Equal(v, val32(9)) {
		t.Fatalf("parse = %v, %v", v, ok)
	}
	if _, ok := ParseNeighborhoodInline(raw, kv.FromUint64(10), 32); ok {
		t.Fatal("foreign key parsed from neighborhood")
	}
}

func TestClientParseVar(t *testing.T) {
	tb := newVar(512, 1<<16)
	k := kv.FromUint64(11)
	want := []byte("two-level value")
	tb.Insert(k, want)
	off, n := tb.NeighborhoodOffset(k)
	raw := tb.mem[off : off+n]
	ptr, vlen, ok := ParseNeighborhoodVar(raw, k)
	if !ok {
		t.Fatal("key not found in neighborhood")
	}
	got := tb.extent[ptr : int(ptr)+int(vlen)]
	if !bytes.Equal(got, want) {
		t.Fatalf("extent value = %q", got)
	}
}

func TestNeighborhoodBytesMatchPaper(t *testing.T) {
	// Figure 10's model: FaRM-em READ size is 6*(16+SV); VAR is 6*(16+8).
	for _, sv := range []int{4, 32, 128} {
		tb := newInline(64, sv)
		if got := tb.NeighborhoodBytes(); got != 6*(16+sv) {
			t.Fatalf("inline READ size = %d, want %d", got, 6*(16+sv))
		}
	}
	tb := newVar(64, 1<<12)
	if got := tb.NeighborhoodBytes(); got != 6*(16+8) {
		t.Fatalf("var READ size = %d, want %d", got, 6*24)
	}
}

func TestTableFull(t *testing.T) {
	tb := newInline(8, 32)
	sawFull := false
	for i := 0; i < 32; i++ {
		if err := tb.Insert(kv.FromUint64(uint64(i)), val32(1)); err == ErrTableFull {
			sawFull = true
			break
		}
	}
	if !sawFull {
		t.Fatal("tiny table never filled")
	}
}

func TestExtentFull(t *testing.T) {
	tb := newVar(256, 16)
	var err error
	for i := 0; i < 10 && err == nil; i++ {
		err = tb.Insert(kv.FromUint64(uint64(i)), make([]byte, 8))
	}
	if err != ErrExtentFull {
		t.Fatalf("err = %v, want ErrExtentFull", err)
	}
}

// loadFactor is tb's occupied home-range slots over its capacity.
func loadFactor(tb *Table) float64 {
	used := 0
	for i := 0; i < tb.totalSlots(); i++ {
		if !tb.slotEmpty(i) {
			used++
		}
	}
	return float64(used) / float64(tb.nBuckets)
}

func TestLoadFactorAccounting(t *testing.T) {
	tb := newInline(100, 32)
	for i := 0; i < 50; i++ {
		tb.Insert(kv.FromUint64(uint64(i)), val32(1))
	}
	if lf := loadFactor(tb); lf < 0.49 || lf > 0.51 {
		t.Fatalf("load factor = %v, want 0.5", lf)
	}
}

// Property: model equivalence under mixed inserts/lookups;
// hopscotch is not lossy, so hits AND presence must match exactly for
// keys the table accepted.
func TestHopscotchModelProperty(t *testing.T) {
	f := func(ops []uint8, seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		tb := newVar(256, 1<<18)
		model := make(map[kv.Key]string)
		for _, op := range ops {
			k := kv.FromUint64(uint64(op % 100))
			switch rnd.Intn(2) {
			case 0:
				v := fmt.Sprintf("v%d", rnd.Intn(1000))
				if err := tb.Insert(k, []byte(v)); err == nil {
					model[k] = v
				}
			case 1:
				got, ok := tb.Lookup(k)
				want, in := model[k]
				if ok != in {
					return false
				}
				if ok && string(got) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
