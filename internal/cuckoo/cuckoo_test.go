package cuckoo

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"herdkv/internal/kv"
)

func newTable(nBuckets, extentBytes int) *Table {
	return New(make([]byte, nBuckets*BucketSize), make([]byte, extentBytes), nBuckets)
}

func TestInsertLookup(t *testing.T) {
	tb := newTable(1024, 1<<20)
	k := kv.FromUint64(1)
	if err := tb.Insert(k, []byte("pilaf value")); err != nil {
		t.Fatal(err)
	}
	v, ok := tb.Lookup(k)
	if !ok || string(v) != "pilaf value" {
		t.Fatalf("Lookup = %q, %v", v, ok)
	}
}

func TestLookupMissing(t *testing.T) {
	tb := newTable(1024, 1<<20)
	if _, ok := tb.Lookup(kv.FromUint64(42)); ok {
		t.Fatal("missing key found")
	}
}

func TestUpdate(t *testing.T) {
	tb := newTable(1024, 1<<20)
	k := kv.FromUint64(2)
	tb.Insert(k, []byte("v1"))
	if err := tb.Insert(k, []byte("v2 longer")); err != nil {
		t.Fatal(err)
	}
	v, ok := tb.Lookup(k)
	if !ok || string(v) != "v2 longer" {
		t.Fatalf("after update: %q, %v", v, ok)
	}
	// An update must not consume a second bucket.
	if lf := tb.LoadFactor(); lf > 1.5/1024 {
		t.Fatalf("load factor %v after updating one key", lf)
	}
}

func TestFillTo75Percent(t *testing.T) {
	// Pilaf operates 3-1 cuckoo at 75% memory efficiency; the table must
	// absorb that load without error.
	n := 4096
	tb := newTable(n, 1<<22)
	target := n * 75 / 100
	for i := 0; i < target; i++ {
		if err := tb.Insert(kv.FromUint64(uint64(i)), []byte{byte(i)}); err != nil {
			t.Fatalf("insert %d/%d failed: %v", i, target, err)
		}
	}
	if lf := tb.LoadFactor(); lf < 0.74 || lf > 0.76 {
		t.Fatalf("load factor = %v, want ~0.75", lf)
	}
	// Everything still retrievable.
	for i := 0; i < target; i++ {
		v, ok := tb.Lookup(kv.FromUint64(uint64(i)))
		if !ok || v[0] != byte(i) {
			t.Fatalf("key %d lost after fill (ok=%v)", i, ok)
		}
	}
}

func TestAvgProbesNear1_6(t *testing.T) {
	// At 75% fill the paper quotes 1.6 average probes per GET.
	n := 8192
	tb := newTable(n, 1<<23)
	target := n * 75 / 100
	for i := 0; i < target; i++ {
		tb.Insert(kv.FromUint64(uint64(i)), []byte{1})
	}
	// Reset lookup stats by reading a fresh snapshot baseline.
	before := tb.Stats()
	for i := 0; i < target; i++ {
		tb.Lookup(kv.FromUint64(uint64(i)))
	}
	after := tb.Stats()
	probes := after.Probes - before.Probes
	lookups := after.Lookups - before.Lookups
	avg := float64(probes) / float64(lookups)
	if avg < 1.2 || avg > 2.0 {
		t.Fatalf("avg probes = %.2f, want ~1.6", avg)
	}
}

func TestSelfVerifyingBucketChecksum(t *testing.T) {
	tb := newTable(64, 1<<16)
	k := kv.FromUint64(7)
	tb.Insert(k, []byte("checked"))
	idx := -1
	for _, i := range tb.BucketIndices(k) {
		if tb.occupied(i) {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatal("no occupied candidate bucket")
	}
	raw := tb.buckets[idx*BucketSize : (idx+1)*BucketSize]
	if _, ok := ParseBucket(raw); !ok {
		t.Fatal("valid bucket failed to parse")
	}
	// Corrupt one header byte: parse must fail (torn-read detection).
	corrupt := append([]byte(nil), raw...)
	corrupt[3] ^= 0xff
	if _, ok := ParseBucket(corrupt); ok {
		t.Fatal("corrupt bucket passed checksum")
	}
}

func TestVerifyExtentEntryDetectsTearing(t *testing.T) {
	tb := newTable(64, 1<<16)
	k := kv.FromUint64(8)
	tb.Insert(k, []byte("extent value"))
	var b Bucket
	found := false
	for _, i := range tb.BucketIndices(k) {
		if bb, ok := ParseBucket(tb.rawBucket(i)); ok && bb.Frag == Frag(k) {
			b, found = bb, true
			break
		}
	}
	if !found {
		t.Fatal("bucket not found")
	}
	pos := ExtentOffset(b.Ptr)
	raw := tb.extent[pos : pos+EntryBytes(int(b.VLen))]
	v, ok := VerifyExtentEntry(raw, k, b)
	if !ok || string(v) != "extent value" {
		t.Fatalf("verify = %q, %v", v, ok)
	}
	// Corrupt the value: checksum2 must catch it.
	corrupt := append([]byte(nil), raw...)
	corrupt[len(corrupt)-1] ^= 1
	if _, ok := VerifyExtentEntry(corrupt, k, b); ok {
		t.Fatal("corrupt extent entry passed verification")
	}
	// Wrong key must fail even with intact bytes.
	if _, ok := VerifyExtentEntry(raw, kv.FromUint64(9), b); ok {
		t.Fatal("entry verified against wrong key")
	}
}

func TestParseBucketShortBuffer(t *testing.T) {
	if _, ok := ParseBucket(make([]byte, 8)); ok {
		t.Fatal("short buffer parsed")
	}
	if _, ok := ParseBucket(make([]byte, BucketSize)); ok {
		t.Fatal("empty bucket parsed as occupied")
	}
}

func TestExtentFull(t *testing.T) {
	tb := newTable(1024, 3*EntryBytes(8))
	var err error
	for i := 0; i < 10 && err == nil; i++ {
		err = tb.Insert(kv.FromUint64(uint64(i)), make([]byte, 8))
	}
	if err != ErrExtentFull {
		t.Fatalf("err = %v, want ErrExtentFull", err)
	}
}

func TestValueTooLarge(t *testing.T) {
	tb := newTable(64, 1<<16)
	if err := tb.Insert(kv.FromUint64(1), make([]byte, MaxValueSize+1)); err != ErrValueSize {
		t.Fatalf("err = %v", err)
	}
}

func TestTableFullEventually(t *testing.T) {
	// Overfilling far past cuckoo capacity must fail with ErrTableFull,
	// not loop forever or corrupt earlier entries.
	n := 64
	tb := newTable(n, 1<<20)
	sawFull := false
	inserted := []uint64{}
	for i := 0; i < n*2; i++ {
		err := tb.Insert(kv.FromUint64(uint64(i)), []byte{byte(i)})
		if err == ErrTableFull {
			sawFull = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		inserted = append(inserted, uint64(i))
	}
	if !sawFull {
		t.Fatal("never reported full at 2x capacity")
	}
	// Table remains self-consistent: lookups never return wrong values.
	for _, i := range inserted {
		if v, ok := tb.Lookup(kv.FromUint64(i)); ok && v[0] != byte(i) {
			t.Fatalf("key %d corrupt after displacement storm", i)
		}
	}
}

func TestBucketIndicesInRange(t *testing.T) {
	tb := newTable(333, 1<<16) // non-power-of-two
	f := func(n uint64) bool {
		for _, i := range tb.BucketIndices(kv.FromUint64(n)) {
			if i < 0 || i >= 333 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: model-based — every lookup hit returns the latest inserted
// value; keys reported full are allowed to be dropped but never corrupt.
func TestCuckooModelProperty(t *testing.T) {
	f := func(ops []uint8, seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		tb := newTable(128, 1<<18)
		model := make(map[kv.Key][]byte)
		for _, op := range ops {
			k := kv.FromUint64(uint64(op % 48))
			switch rnd.Intn(2) {
			case 0:
				v := []byte(fmt.Sprintf("v%d", rnd.Intn(1000)))
				if err := tb.Insert(k, v); err == nil {
					model[k] = v
				} else {
					delete(model, k) // dropped by displacement failure
				}
			case 1:
				if got, ok := tb.Lookup(k); ok {
					if want, in := model[k]; in && !bytes.Equal(got, want) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
