package experiments

import (
	"testing"

	"herdkv/internal/kv"
	"herdkv/internal/lint/hotalloc/hotgate"
	"herdkv/internal/sim"
	"herdkv/internal/workload"
)

// stashKV is a kv.KV that never completes on its own: it keeps the
// last callback it was handed, so a test completes ops by hand.
type stashKV struct{ cb func(kv.Result) }

func (s *stashKV) Get(_ kv.Key, cb func(kv.Result)) error           { s.cb = cb; return nil }
func (s *stashKV) Put(_ kv.Key, _ []byte, cb func(kv.Result)) error { s.cb = cb; return nil }
func (s *stashKV) Delete(_ kv.Key, cb func(kv.Result)) error        { s.cb = cb; return nil }
func (*stashKV) Inflight() int                                      { return 0 }
func (*stashKV) Issued() uint64                                     { return 0 }
func (*stashKV) Completed() uint64                                  { return 0 }
func (*stashKV) Failed() uint64                                     { return 0 }

// TestHotpathAllocFree gates the closed-loop driver at 0 allocs/op:
// each gate run takes one GET chain and one PUT chain (its value drawn
// from the generator) through issue, or through complete→observe→
// reissue, reusing the chain records and their bound callbacks.
func TestHotpathAllocFree(t *testing.T) {
	eng := sim.New()
	var observed uint64
	d := newDriver(eng, func(*chain, kv.Result) { observed++ })
	gets, puts := &stashKV{}, &stashKV{}
	src := func(getFraction float64) opSource {
		return workload.NewGenerator(workload.Config{GetFraction: getFraction, Keys: 1024, ValueSize: 32, Seed: 1})
	}
	d.add(gets, src(1), 1, 0)
	d.add(puts, src(0), 1, 0)
	eng.Run()
	if gets.cb == nil || puts.cb == nil || d.issued != 2 {
		t.Fatalf("driver start: issued %d, want one GET and one PUT posted", d.issued)
	}
	get, put := &d.clients[0].chains[0], &d.clients[1].chains[0]
	hotgate.Check(t, ".", map[string]func(){
		"chain.issue": func() { get.issue(); put.issue() },
		"chain.complete": func() {
			gets.cb(kv.Result{Status: kv.StatusHit})
			puts.cb(kv.Result{Status: kv.StatusHit})
		},
		"mustPost": func() { mustPost(nil) },
	})
	if observed == 0 {
		t.Fatal("complete gate observed no ops")
	}
}
