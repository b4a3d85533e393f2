package sim

// Clock is the read-and-schedule face of the engine: the interface
// deterministic components depend on instead of the wall clock. The
// simtime analyzer (internal/lint/simtime) rejects time.Now / time.Sleep
// and friends inside model packages and directs callers here — virtual
// time comes from a Clock, never from the operating system.
type Clock interface {
	// Now returns the current virtual time.
	Now() Time
	// At schedules fn at virtual instant t (clamped to now if earlier).
	At(t Time, fn func())
	// After schedules fn d after the current virtual time.
	After(d Time, fn func())
	// AfterHandler schedules h.Fire d after the current virtual time: a
	// pooled record instead of a fresh closure (see Handler).
	AfterHandler(d Time, h Handler)
}

// Engine implements Clock.
var _ Clock = (*Engine)(nil)
