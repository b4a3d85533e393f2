package experiments

import (
	"testing"

	"herdkv/internal/kv"
	"herdkv/internal/sim"
	"herdkv/internal/workload"
)

// delayKV answers every op as a hit one microsecond after it is posted.
type delayKV struct{ eng *sim.Engine }

func (d delayKV) Get(_ kv.Key, cb func(kv.Result)) error {
	d.eng.After(sim.Microsecond, func() { cb(kv.Result{Status: kv.StatusHit}) })
	return nil
}

func (d delayKV) Put(k kv.Key, _ []byte, cb func(kv.Result)) error { return d.Get(k, cb) }

// TestWarmRefusesUnstartedClient checks the driver's warmup guard: a
// client that starts inside the measured span panics at the span's
// opening, and one that starts within the warmup passes.
func TestWarmRefusesUnstartedClient(t *testing.T) {
	warm := func(start sim.Time) (panicked bool) {
		eng := sim.New()
		d := newDriver(eng, func(*chain, kv.Result) {})
		d.add(delayKV{eng}, workload.NewGenerator(workload.ReadIntensive(16, 8, 1)), 1, start)
		defer func() { panicked = recover() != nil }()
		d.warm(50 * sim.Microsecond)
		return false
	}
	if warm(49 * sim.Microsecond) {
		t.Fatal("a client started within the warmup was refused")
	}
	if !warm(51 * sim.Microsecond) {
		t.Fatal("a client that starts inside the measured span was not refused")
	}
}
