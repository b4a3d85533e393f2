package mux

import (
	"runtime"
	"testing"
)

// TestChannelFootprint bounds what an open channel costs the host: the
// live heap an endpoint grows by per channel, over as many channels as
// the mux-open bench workload opens. A channel is a 40-byte slot in one
// of the endpoint's channel blocks plus its 8-byte entry in the channel
// table; its backlog links pooled ops, so it holds no queue storage.
// 56 bytes leaves room for the ready bitmap and runtime noise, and
// fails a channel that is allocated on its own or owns a ring (97
// bytes a channel when each had both).
func TestChannelFootprint(t *testing.T) {
	const chans = 1 << 16
	ep := newFakeEndpoint(t, &fakeClient{window: 4}, Config{})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range chans {
		if _, err := ep.OpenChannel(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perChan := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / chans
	runtime.KeepAlive(ep)
	t.Logf("%.1f B of live heap per channel over %d channels", perChan, chans)
	if perChan > 56 {
		t.Fatalf("%.1f B of live heap per channel, want at most 56", perChan)
	}
}
