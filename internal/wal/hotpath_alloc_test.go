package wal

import (
	"testing"

	"herdkv/internal/lint/hotalloc/hotgate"
	"herdkv/internal/sim"
)

// TestHotpathAllocFree gates the //herd:hotpath functions on the append
// and group-commit path at 0 allocs/op. Append encodes into the pending
// buffer, which keeps its capacity across batches, and a commit cycle —
// appends with sync-durability callbacks, a forced flush, the device
// write landing, the interval timer firing — reuses pooled flight and
// timer records, so once warm only a new durable segment allocates,
// once per segSize bytes logged.
func TestHotpathAllocFree(t *testing.T) {
	eng := sim.New()
	cfg := testConfig()
	cfg.FlushBatch = 1 << 20 // the append gate must never trip a batch flush
	l := New(eng, cfg, nil)
	r := rec(7, "durable-value")
	// Warm: grow pending's capacity past everything the gates append
	// and arm the interval timer (the engine never runs, so it stays
	// armed for the whole measurement).
	for i := 0; i < 512; i++ {
		l.Append(r, nil)
	}
	l.pending, l.npending = l.pending[:0], 0
	frame := appendRecord(nil, r)
	buf := make([]byte, 0, 4*len(frame))
	var segs segments

	ceng := sim.New()
	cl := New(ceng, testConfig(), nil)
	acked := 0
	onDurable := func() { acked++ }
	commit := func() {
		for i := 0; i < 8; i++ {
			cl.Append(r, onDurable)
		}
		cl.Flush()
		ceng.Run()
	}
	hotgate.Check(t, ".", map[string]func(){
		"appendRecord":    func() { buf = appendRecord(buf[:0], r) },
		"Log.Append":      func() { l.Append(r, nil) },
		"Log.armTimer":    func() { l.armTimer() },
		"Log.xfer":        func() { _ = l.xfer(4096) },
		"Log.Flush":       commit,
		"Log.kick":        commit,
		"Log.startFlush":  commit,
		"Log.commitFlush": commit,
		"flight.Fire":     commit,
		"flushTimer.Fire": commit,
		"segments.fit":    func() { _ = segs.fit(len(frame)) },
		"segments.addFrames": func() {
			segs.addFrames(frame)
			segs.truncate(0)
		},
	})
	if acked == 0 || acked%8 != 0 || cl.Pending() != 0 {
		t.Fatalf("commit cycles acked %d appends with %d still pending", acked, cl.Pending())
	}
}
