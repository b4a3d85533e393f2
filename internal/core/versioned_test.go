package core

import (
	"bytes"
	"errors"
	"testing"

	"herdkv/internal/kv"
	"herdkv/internal/mica"
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

// TestUnstampedRefused: a versioned store orders values by their
// stamps, so bytes too short to carry one are refused with
// kv.ErrUnstamped — by mica's ordered insert and its bulk-load form, by
// a versioned server's Preload, and by its PUT path, which answers
// not-found — and never stored, where a stamped value could not outrank
// them.
func TestUnstampedRefused(t *testing.T) {
	cfg := smallConfig()
	cfg.VersionedValues = true
	short := []byte("no stamp")
	key := kv.FromUint64(5)

	part := mica.New(cfg.Mica)
	if applied, err := part.PutNewer(key, short); applied || !errors.Is(err, kv.ErrUnstamped) {
		t.Fatalf("PutNewer(unstamped) = %v, %v; want refused with ErrUnstamped", applied, err)
	}
	if err := part.LoadNewer(key, short); !errors.Is(err, kv.ErrUnstamped) {
		t.Fatalf("LoadNewer(unstamped) = %v, want ErrUnstamped", err)
	}
	if _, ok := part.Get(key); ok {
		t.Fatal("the partition stored unstamped bytes")
	}

	cl, srv, clients := newHERD(t, cfg, 1)
	if err := srv.Preload(key, short); !errors.Is(err, kv.ErrUnstamped) {
		t.Fatalf("versioned Preload(unstamped) = %v, want ErrUnstamped", err)
	}
	var put, get Result
	clients[0].Put(key, short, func(r Result) {
		put = r
		clients[0].Get(key, func(r Result) { get = r })
	})
	cl.Eng.Run()
	if put.Status != kv.StatusMiss || get.Status != kv.StatusMiss {
		t.Fatalf("unstamped PUT = %v, then GET = %v; want both misses", put.Status, get.Status)
	}
}
