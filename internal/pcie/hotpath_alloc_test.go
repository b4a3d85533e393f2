package pcie

import (
	"testing"

	"herdkv/internal/lint/hotalloc/hotgate"
	"herdkv/internal/sim"
)

// TestHotpathAllocFree gates the bus's transactions at 0 allocs/op: a
// PIO write, a non-posted DMA read and a posted DMA write, each through
// both of its stage events to the completion callback. Transaction
// records come from the bus's pool, warmed by the first run.
func TestHotpathAllocFree(t *testing.T) {
	eng := sim.New()
	b := NewBus(eng, Gen3x8())
	done := func(sim.Time) {}
	hotgate.Check(t, ".", map[string]func(){
		"Bus.PIOWrite": func() { b.PIOWrite(100, done); eng.Run() },
		"Bus.DMARead":  func() { b.DMARead(512, done); eng.Run() },
		"Bus.DMAWrite": func() { b.DMAWrite(512, nil); eng.Run() },
		"busJob.Fire":  func() { b.PIOWrite(64, nil); b.DMAWrite(64, done); eng.Run() },
	})
}

// BenchmarkPIOWrite measures one inlined-WQE PIO write through the
// engine to its completion callback.
func BenchmarkPIOWrite(b *testing.B) {
	eng := sim.New()
	bus := NewBus(eng, Gen3x8())
	done := func(sim.Time) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.PIOWrite(100, done)
		eng.Run()
	}
}
