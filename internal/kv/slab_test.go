package kv

import (
	"bytes"
	"testing"
)

// TestSlabValuesAreIndependent: values cut from one block behave as
// separate allocations. Writing into or appending to one leaves its
// neighbours unchanged, and blocks are refilled only when one runs out.
func TestSlabValuesAreIndependent(t *testing.T) {
	var s Slab
	if v := s.Copy(nil); v != nil {
		t.Fatalf("Copy(nil) = %q, want nil", v)
	}
	if v := s.Copy([]byte{}); v != nil {
		t.Fatalf("Copy(empty) = %q, want nil", v)
	}
	var vals, want [][]byte
	for i := 0; i < 3*SlabSize/100; i++ {
		src := bytes.Repeat([]byte{byte(i)}, 100)
		v := s.Copy(src)
		src[0] ^= 0xff // the copy must not alias its source
		if len(v) != 100 || cap(v) != 100 {
			t.Fatalf("value %d: len %d cap %d, want both 100", i, len(v), cap(v))
		}
		vals = append(vals, v)
		want = append(want, bytes.Repeat([]byte{byte(i)}, 100))
	}
	for i := range vals {
		if i%2 == 0 {
			for j := range vals[i] {
				vals[i][j] = 0xee
			}
			want[i] = vals[i]
		} else {
			vals[i] = append(vals[i], "grown"...)
			want[i] = append(want[i], "grown"...)
		}
	}
	for i := range vals {
		if !bytes.Equal(vals[i], want[i]) {
			t.Fatalf("value %d changed under its neighbours' writes", i)
		}
	}
	big := bytes.Repeat([]byte{7}, SlabSize+1)
	if v := s.Copy(big); !bytes.Equal(v, big) {
		t.Fatal("oversized value not copied whole")
	}
	allocs := testing.AllocsPerRun(1000, func() { _ = s.Copy(big[:32]) })
	if allocs != 0 {
		t.Fatalf("Copy of 32 bytes: %.2f allocs/op, want one refill per %d bytes", allocs, SlabSize)
	}
}
