package sim

import (
	"testing"

	"herdkv/internal/lint/hotalloc/hotgate"
)

// nopHandler is a pointer-typed Handler, the shape of a pooled stage
// record.
type nopHandler struct{ fired int }

func (h *nopHandler) Fire(Time) { h.fired++ }

// TestHotpathAllocFree gates the engine's per-event path at 0 allocs/op:
// scheduling a closure or a stage record into each tier of the queue,
// running it, and a Server job's completion. Each tier's storage grows
// once, during warm-up.
func TestHotpathAllocFree(t *testing.T) {
	e := New()
	s := NewServer(e)
	fn := func() {}
	done := func(Time) {}
	h := &nopHandler{}
	// One event in each tier (now, calendar, far), then run them.
	tiers := func() {
		for _, d := range []Time{0, Nanosecond, horizon} {
			e.AfterHandler(d, h)
		}
		for e.Step() {
		}
	}
	// Two calendar events buckets apart, so draining the first scans
	// the bitmap for the second.
	spread := func() {
		e.AfterHandler(Nanosecond, h)
		e.AfterHandler(700*Nanosecond, h)
		e.Run()
	}
	far := func() { e.AfterHandler(20*Microsecond, h); e.Step() }
	hotgate.Check(t, ".", map[string]func(){
		"Engine.push":      tiers,
		"Engine.pop":       tiers,
		"Engine.pushFar":   far,
		"Engine.popFar":    far,
		"calendar.push":    spread,
		"calendar.pop":     spread,
		"calendar.gap":     spread,
		"Engine.At":        func() { e.At(e.now+1, fn); e.Step() },
		"Engine.AtHandler": func() { e.AtHandler(e.now+1, h); e.Step() },
		"Engine.Step":      func() { e.After(0, fn); e.Step() },
		"Engine.stepUntil": func() {
			e.AfterHandler(Nanosecond, h)
			for e.stepUntil(e.now + Nanosecond) {
			}
		},
		"Server.Submit":        func() { s.Submit(Nanosecond, done); e.Run() },
		"Server.SubmitHandler": func() { s.SubmitHandler(Nanosecond, h); e.Run() },
	})
}
