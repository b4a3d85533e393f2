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
// scheduling a closure or a stage record, running it, and a Server job's
// completion. The queue's backing array grows once, during warm-up.
func TestHotpathAllocFree(t *testing.T) {
	e := New()
	s := NewServer(e, 2)
	fn := func() {}
	done := func(Time) {}
	h := &nopHandler{}
	hotgate.Check(t, ".", map[string]func(){
		"Engine.push": func() { e.push(event{at: e.now, h: h}); e.pop() },
		"Engine.pop":  func() { e.push(event{at: e.now, h: h}); e.pop() },
		"Engine.At":   func() { e.At(e.now+1, fn); e.Step() },
		"Engine.AtHandler": func() {
			e.AtHandler(e.now+1, h)
			e.Step()
		},
		"Engine.Step":          func() { e.After(0, fn); e.Step() },
		"Server.Submit":        func() { s.Submit(Nanosecond, done); e.Run() },
		"Server.SubmitHandler": func() { s.SubmitHandler(Nanosecond, h); e.Run() },
	})
}
