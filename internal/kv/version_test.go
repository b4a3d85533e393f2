package kv

import (
	"bytes"
	"testing"
)

func TestVersionCompare(t *testing.T) {
	cases := []struct {
		a, b Version
		want int
	}{
		{Version{1, 0}, Version{2, 0}, -1},
		{Version{2, 0}, Version{1, 9}, 1},
		{Version{3, 4}, Version{3, 4}, 0},
		{Version{3, 4}, Version{3, 5}, -1},
		{Version{3, 6}, Version{3, 5}, 1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := c.a.Less(c.b); got != (c.want < 0) {
			t.Errorf("Less(%v, %v) = %v, want %v", c.a, c.b, got, c.want < 0)
		}
	}
	// The zero stamp (no version information) orders before every
	// written one.
	for _, v := range []Version{{Epoch: 1}, {Seq: 1}} {
		if v == (Version{}) || !(Version{}).Less(v) {
			t.Fatalf("%v must differ from and order after the zero Version", v)
		}
	}
}

func TestVersionRoundTrip(t *testing.T) {
	payload := []byte("hello, versioned world")
	for _, tomb := range []bool{false, true} {
		v := Version{Epoch: 123456789, Seq: 42}
		stored := AppendVersion(nil, v, tomb)
		stored = append(stored, payload...)
		if len(stored) != VersionPrefixLen+len(payload) {
			t.Fatalf("stored length %d, want %d", len(stored), VersionPrefixLen+len(payload))
		}
		got, gotTomb, gotPayload, ok := SplitVersion(stored)
		if !ok {
			t.Fatal("SplitVersion rejected a well-formed value")
		}
		if got != v || gotTomb != tomb || !bytes.Equal(gotPayload, payload) {
			t.Fatalf("round trip: got (%v, %v, %q), want (%v, %v, %q)",
				got, gotTomb, gotPayload, v, tomb, payload)
		}
	}
}

func TestVersionSplitShort(t *testing.T) {
	for n := 0; n < VersionPrefixLen; n++ {
		if _, _, _, ok := SplitVersion(make([]byte, n)); ok {
			t.Fatalf("SplitVersion accepted a %d-byte value", n)
		}
	}
}

func TestVersionEmptyPayload(t *testing.T) {
	stored := AppendVersion(nil, Version{Epoch: 7, Seq: 1}, true)
	v, tomb, payload, ok := SplitVersion(stored)
	if !ok || !tomb || v != (Version{Epoch: 7, Seq: 1}) || len(payload) != 0 {
		t.Fatalf("got (%v, %v, %q, %v)", v, tomb, payload, ok)
	}
}
