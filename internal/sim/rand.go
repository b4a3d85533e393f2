package sim

// Rand is the single blessed gateway to math/rand: every deterministic
// package draws randomness through it (or through a *Rand threaded in
// from outside), so seeds flow from one place and the simtime analyzer
// can reject stray math/rand usage elsewhere in the model.
import "math/rand" //lint:allow simtime — sim.Rand is the one wrapper around math/rand; everything else goes through it

// Rand is a deterministic random source for model components. It wraps
// math/rand with an explicit seed so experiment runs are reproducible.
type Rand struct {
	r *rand.Rand
}

// NewRand returns a source seeded with seed.
func NewRand(seed int64) *Rand {
	return &Rand{r: rand.New(rand.NewSource(seed))} //lint:allow simtime — the blessed construction point for model randomness
}

// Intn returns a value in [0, n).
func (r *Rand) Intn(n int) int { return r.r.Intn(n) }

// Int63n returns a value in [0, n) as an int64.
func (r *Rand) Int63n(n int64) int64 { return r.r.Int63n(n) }

// Float64 returns a value in [0, 1).
func (r *Rand) Float64() float64 { return r.r.Float64() }

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int { return r.r.Perm(n) }

// DurationBetween returns a uniformly distributed Time in [lo, hi].
func (r *Rand) DurationBetween(lo, hi Time) Time {
	if hi <= lo {
		return lo
	}
	return lo + Time(r.r.Int63n(int64(hi-lo)+1))
}
