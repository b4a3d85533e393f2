package core

import (
	"testing"

	"herdkv/internal/kv"
	"herdkv/internal/lint/hotalloc/hotgate"
	"herdkv/internal/mica"
	"herdkv/internal/sim"
)

// TestHotpathAllocFree gates this package's //herd:hotpath functions
// at 0 allocs/op: the request encode and response parse/build kernels
// on both sides of the wire, the admission-control arithmetic, and the
// pooled records of a live request — the server's serve record through
// CPU service, MICA, the WAL and the response, and the client's op
// timers. Request payloads build into the pooled op's slot-sized
// buffer and responses into the serve record or the per-process
// scratch, so the steady-state data path never touches the heap.
func TestHotpathAllocFree(t *testing.T) {
	cfg := DefaultConfig()
	s := &Server{cfg: cfg, queued: make([]int, cfg.NS), svcEWMA: make([]sim.Time, cfg.NS)}
	c := &Client{srv: s, cwnd: float64(cfg.Window)}
	op := &pendingOp{key: kv.FromUint64(9), kind: opPut}
	op.value = append(op.value, []byte("payload-bytes")...)
	respBuf := make([]byte, respHdr+mica.MaxValueSize)
	encodeRespHeader(respBuf, statusOK, 4, 3) // give parseRespHeader a valid header
	var slotRaw, reqRaw [SlotSize]byte
	copy(reqRaw[SlotSize-keyTail:], op.key[:]) // a landed GET

	// A live round trip on a versioned, group-commit server with
	// retries on: a stamped PUT and a GET miss (a hit's value copy is
	// the caller's, and allocates by contract). Every op's retry timer
	// fires after its response, as a stale no-op.
	lcfg := smallConfig()
	lcfg.VersionedValues = true
	lcfg.Durability = DurabilityGroupCommit
	lcfg.RetryTimeout = 12 * sim.Microsecond
	cl, _, clients := newHERD(t, lcfg, 1)
	lc := clients[0]
	stamped := kv.AppendVersion(nil, kv.Version{Epoch: 1, Seq: 1}, false)
	stamped = append(stamped, "gate-value"...)
	served := 0
	cb := func(r Result) {
		if r.Err == nil {
			served++
		}
	}
	roundTrip := func() {
		if err := lc.Put(kv.FromUint64(3), stamped, cb); err != nil {
			t.Fatal(err)
		}
		if err := lc.Get(kv.FromUint64(404), cb); err != nil {
			t.Fatal(err)
		}
		cl.Eng.Run()
	}

	hotgate.Check(t, ".", map[string]func(){
		"opKind.kindName":       func() { _ = opPut.kindName() },
		"Client.window":         func() { _ = c.window() },
		"Client.encodeRequest":  func() { _ = c.encodeRequest(op, 5) },
		"parseRespHeader":       func() { _, _, _ = parseRespHeader(respBuf[:respHdr]) },
		"Config.SlotIndex":      func() { _ = cfg.SlotIndex(1, 2, 3) },
		"Config.maxRetries":     func() { _ = lcfg.maxRetries() },
		"Server.overloaded":     func() { _ = s.overloaded(0) },
		"Server.retryAfterHint": func() { _ = s.retryAfterHint(0) },
		"Server.noteService":    func() { s.noteService(0, 100*sim.Nanosecond) },
		"Server.Down":           func() { _ = s.Down() },
		"validLen":              func() { _ = validLen(128) },
		"parseRequest":          func() { _, _ = parseRequest(reqRaw[:], 0) },
		"zeroTail":              func() { zeroTail(slotRaw[:]) },
		"encodeRespHeader":      func() { _ = encodeRespHeader(respBuf, statusOK, 8, 1) },
		"postLossy":             func() { postLossy(nil) },
		"Server.clientQP":       roundTrip,
		"serveRec.Fire":         roundTrip,
		"serveRec.respBuf":      roundTrip,
		"serveRec.respond":      roundTrip,
		"serveRec.release":      roundTrip,
		"Client.submit":         roundTrip,
		"Client.issue":          roundTrip,
		"Client.writeRequest":   roundTrip,
		"Client.armRetry":       roundTrip,
		"Client.retryDelay":     roundTrip,
		"Client.jitter":         roundTrip,
		"Client.armTimer":       roundTrip,
		"opTimer.Fire":          roundTrip,
	})
	if served == 0 || lc.Inflight() != 0 || lc.Retries() != 0 {
		t.Fatalf("gate round trips: %d served, %d in flight, %d retries", served, lc.Inflight(), lc.Retries())
	}
}
