package core

import (
	"bytes"
	"testing"

	"herdkv/internal/kv"
)

// stamped builds a version-prefixed value.
func stamped(epoch int64, seq uint64, payload string) []byte {
	v := kv.AppendVersion(nil, kv.Version{Epoch: epoch, Seq: seq}, false)
	return append(v, payload...)
}

// TestVersionedOrderedApply drives a versioned server end to end: a PUT
// whose stamp does not outrank the stored entry's must be refused
// (acked, not applied), regardless of arrival order, and Preload obeys
// the same ordering.
func TestVersionedOrderedApply(t *testing.T) {
	cfg := smallConfig()
	cfg.VersionedValues = true
	cl, srv, clients := newHERD(t, cfg, 1)
	c := clients[0]
	key := kv.FromUint64(7)

	newer := stamped(200, 1, "new")
	older := stamped(100, 1, "old")

	var r1, r2, got Result
	c.Put(key, newer, func(r Result) {
		r1 = r
		c.Put(key, older, func(r Result) {
			r2 = r
			c.Get(key, func(r Result) { got = r })
		})
	})
	cl.Eng.Run()

	if r1.Status != kv.StatusHit || r2.Status != kv.StatusHit {
		t.Fatalf("puts: %+v, %+v", r1, r2)
	}
	if got.Status != kv.StatusHit || !bytes.Equal(got.Value, newer) {
		t.Fatalf("stale PUT regressed the stored value: GET = %+v", got)
	}
	if err := srv.Preload(key, stamped(10, 1, "ancient")); err != nil {
		t.Fatal(err)
	}
	var after Result
	c.Get(key, func(r Result) { after = r })
	cl.Eng.Run()
	if !bytes.Equal(after.Value, newer) {
		t.Fatalf("Preload regressed the stored version: GET = %+v", after)
	}
}
