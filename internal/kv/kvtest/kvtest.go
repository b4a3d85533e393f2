// Package kvtest is a conformance suite for kv.KV implementations.
// Every backend — HERD, the fleet (sharded at R=1, replicated above),
// Pilaf-em and FaRM-em — completes operations with the same kv.Result
// vocabulary, runs each callback exactly once and honours the same
// buffer-ownership rules; this suite pins that contract in one place,
// so a new backend (or a refactor of an old one) is checked against
// the same semantics as every other.
package kvtest

import (
	"bytes"
	"testing"

	"herdkv/internal/kv"
)

// Harness wraps one backend instance for a conformance run.
type Harness struct {
	// KV is the client under test, attached to a freshly built backend.
	KV kv.KV
	// Run drives the simulation engine until all outstanding events
	// drain (typically cluster.Eng.Run).
	Run func()
	// ValueSize, when nonzero, is the only legal PUT value length
	// (FaRM-em's inline mode stores fixed-size values). Zero means any
	// small value is accepted.
	ValueSize int
	// AllowFailures relaxes the clean-network assumption for backends
	// run under fault injection (a nemesis schedule): operations may
	// resolve with Err set, and a subtest whose ops failed skips its
	// value/status assertions — it can no longer conclude anything
	// about them. Every structural invariant still holds: callbacks
	// run exactly once, and a backend that reports Inflight/Failed
	// drains to zero in flight and counts every failure it resolved.
	AllowFailures bool
}

// anyFailed reports whether failure tolerance is on and one of the
// resolved results carries an error (nil entries mean the callback
// never ran — that is always a failure of the suite itself, never
// tolerated here).
func (h Harness) anyFailed(t *testing.T, rs ...*kv.Result) bool {
	t.Helper()
	if !h.AllowFailures {
		return false
	}
	for _, r := range rs {
		if r != nil && r.Err != nil {
			t.Logf("op failed under fault injection (tolerated): %+v", *r)
			return true
		}
	}
	return false
}

// value builds a legal PUT value with recognizable content.
func (h Harness) value(fill byte) []byte {
	n := h.ValueSize
	if n == 0 {
		n = 24
	}
	v := make([]byte, n)
	for i := range v {
		v[i] = fill + byte(i)
	}
	return v
}

// Factory builds a fresh backend per subtest, so state cannot leak
// between conformance checks.
type Factory func(t *testing.T) Harness

// Run executes the conformance suite against the backend built by mk.
func Run(t *testing.T, mk Factory) {
	t.Run("PutGetRoundTrip", func(t *testing.T) { putGetRoundTrip(t, mk(t)) })
	t.Run("GetMiss", func(t *testing.T) { getMiss(t, mk(t)) })
	t.Run("ZeroKeyRejected", func(t *testing.T) { zeroKeyRejected(t, mk(t)) })
	t.Run("CallbackExactlyOnce", func(t *testing.T) { callbackExactlyOnce(t, mk(t)) })
	t.Run("CounterInvariants", func(t *testing.T) { counterInvariants(t, mk(t)) })
	t.Run("BufferOwnership", func(t *testing.T) { bufferOwnership(t, mk(t)) })
}

func putGetRoundTrip(t *testing.T, h Harness) {
	key := kv.FromUint64(7)
	val := h.value('a')
	var putRes, getRes *kv.Result
	if err := h.KV.Put(key, val, func(r kv.Result) {
		putRes = &r
		if err := h.KV.Get(key, func(r kv.Result) { getRes = &r }); err != nil {
			t.Errorf("Get: %v", err)
		}
	}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	h.Run()

	if putRes == nil || getRes == nil {
		t.Fatal("callbacks did not run")
	}
	if h.anyFailed(t, putRes, getRes) {
		return
	}
	if putRes.Status != kv.StatusHit || putRes.Err != nil {
		t.Fatalf("PUT result %+v, want hit", *putRes)
	}
	if getRes.Status != kv.StatusHit || !bytes.Equal(getRes.Value, val) {
		t.Fatalf("GET result %+v, want hit with stored value", *getRes)
	}
	if !getRes.IsGet {
		t.Fatal("GET result not marked IsGet")
	}
	if getRes.Latency <= 0 {
		t.Fatalf("GET latency %v, want positive", getRes.Latency)
	}
}

func getMiss(t *testing.T, h Harness) {
	var res *kv.Result
	if err := h.KV.Get(kv.FromUint64(404), func(r kv.Result) { res = &r }); err != nil {
		t.Fatalf("Get: %v", err)
	}
	h.Run()
	if res == nil {
		t.Fatal("callback did not run")
	}
	if h.anyFailed(t, res) {
		return
	}
	if res.Status != kv.StatusMiss || res.Err != nil {
		t.Fatalf("miss result %+v, want StatusMiss with nil Err", *res)
	}
	if res.Value != nil {
		t.Fatalf("miss carried a value %q", res.Value)
	}
}

// bufferOwnership pins kv.KV's buffer-ownership contract: Put copies
// its value before returning, so the caller may reuse the buffer at
// once, and a GET hit's Value belongs to the callback, so mutating it
// cannot reach the store or any cache.
func bufferOwnership(t *testing.T, h Harness) {
	key := kv.FromUint64(31)
	val := h.value('o')
	want := append([]byte(nil), val...)
	var put, first, second *kv.Result
	firstIntact := false
	err := h.KV.Put(key, val, func(r kv.Result) {
		put = &r
		h.KV.Get(key, func(r kv.Result) {
			first = &r
			firstIntact = bytes.Equal(r.Value, want)
			for i := range r.Value {
				r.Value[i] ^= 0xff
			}
			h.KV.Get(key, func(r kv.Result) { second = &r })
		})
	})
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	for i := range val {
		val[i] = 'z'
	}
	h.Run()

	if put == nil || first == nil || second == nil {
		t.Fatal("callbacks did not all run")
	}
	if h.anyFailed(t, put, first, second) {
		return
	}
	if first.Status != kv.StatusHit || !firstIntact {
		t.Fatalf("GET after PUT = %v (%q), want the value as Put was called, not the caller's later overwrite",
			first.Status, first.Value)
	}
	if second.Status != kv.StatusHit || !bytes.Equal(second.Value, want) {
		t.Fatalf("GET after mutating a hit's Value = %v (%q), want the stored value unchanged", second.Status, second.Value)
	}
	neighbourValues(t, h)
}

// neighbourValues checks the ownership rule across results: hits that
// resolve back to back (which a backend may cut from one shared block)
// are separate values, so writing into one or appending to one leaves
// every other unchanged.
func neighbourValues(t *testing.T, h Harness) {
	const n = 4
	keys := make([]kv.Key, n)
	want := make([][]byte, n)
	stored := 0
	for i := range keys {
		keys[i] = kv.FromUint64(uint64(40 + i))
		want[i] = h.value(byte('A' + 16*i))
		if err := h.KV.Put(keys[i], want[i], func(r kv.Result) {
			if r.Err == nil {
				stored++
			}
		}); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	h.Run()
	if stored != n {
		if h.AllowFailures {
			return
		}
		t.Fatalf("stored %d of %d keys", stored, n)
	}
	got := make([]*kv.Result, n)
	for round := 0; round < 2; round++ {
		for i := range keys {
			i := i
			if err := h.KV.Get(keys[i], func(r kv.Result) { got[i] = &r }); err != nil {
				t.Fatalf("Get: %v", err)
			}
		}
		h.Run()
		if h.anyFailed(t, got...) {
			return
		}
		for i, r := range got {
			if r == nil || r.Status != kv.StatusHit || !bytes.Equal(r.Value, want[i]) {
				t.Fatalf("round %d: GET %d = %+v, want a hit with its stored value", round, i, r)
			}
		}
		// Round 0 grows each value in turn, round 1 scribbles over each;
		// after each write, every other value must read as before.
		expect := make([][]byte, n)
		for i, r := range got {
			expect[i] = append([]byte(nil), r.Value...)
		}
		for i, r := range got {
			if round == 0 {
				r.Value = append(r.Value, "-appended-past-the-end"...)
			} else {
				for j := range r.Value {
					r.Value[j] = '#'
				}
			}
			expect[i] = append([]byte(nil), r.Value...)
			for j, o := range got {
				if !bytes.Equal(o.Value, expect[j]) {
					t.Fatalf("round %d: value %d = %q after value %d was written, want %q", round, j, o.Value, i, expect[j])
				}
			}
		}
	}
}

func zeroKeyRejected(t *testing.T, h Harness) {
	var zero kv.Key
	ran := false
	cb := func(kv.Result) { ran = true }
	if err := h.KV.Get(zero, cb); err == nil {
		t.Error("Get(zero key) accepted")
	}
	if err := h.KV.Put(zero, h.value('z'), cb); err == nil {
		t.Error("Put(zero key) accepted")
	}
	// An empty PUT value is malformed input too: no backend can store
	// it, so each must refuse it before issuing anything.
	if err := h.KV.Put(kv.FromUint64(1), nil, cb); err == nil {
		t.Error("Put(empty value) accepted")
	}
	h.Run()
	if ran {
		t.Fatal("a rejected operation still ran its callback")
	}
}

func callbackExactlyOnce(t *testing.T, h Harness) {
	const n = 12
	counts := make([]int, 2*n)
	for i := 0; i < n; i++ {
		i := i
		key := kv.FromUint64(uint64(i) + 1)
		if err := h.KV.Put(key, h.value(byte(i)), func(kv.Result) { counts[2*i]++ }); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		if err := h.KV.Get(key, func(kv.Result) { counts[2*i+1]++ }); err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
	}
	h.Run()
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("callback %d ran %d times, want exactly once", i, c)
		}
	}
}

// counterInvariants checks the accounting that survives on every
// backend: each op resolves, no op fails on a clean network, and a
// backend that still reports Inflight/Failed (the core and fleet
// clients) drains to zero in flight and counts exactly the failures
// its callbacks saw.
func counterInvariants(t *testing.T, h Harness) {
	const n = 16
	resolved, failed := 0, 0
	cb := func(r kv.Result) {
		resolved++
		if r.Err != nil {
			failed++
		}
	}
	for i := 0; i < n; i++ {
		key := kv.FromUint64(uint64(i) + 1)
		var err error
		if i%2 == 0 {
			err = h.KV.Put(key, h.value(byte(i)), cb)
		} else {
			err = h.KV.Get(key, cb)
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	h.Run()

	if resolved != n {
		t.Fatalf("%d of %d callbacks ran", resolved, n)
	}
	if c, ok := h.KV.(interface{ Inflight() int }); ok {
		if got := c.Inflight(); got != 0 {
			t.Fatalf("Inflight = %d after drain, want 0", got)
		}
	}
	if c, ok := h.KV.(interface{ Failed() uint64 }); ok {
		if got := c.Failed(); got != uint64(failed) {
			t.Fatalf("Failed = %d, but %d callbacks saw an error", got, failed)
		}
	}
	if failed != 0 && !h.AllowFailures {
		t.Fatalf("%d ops failed on a clean network, want 0", failed)
	}
}
