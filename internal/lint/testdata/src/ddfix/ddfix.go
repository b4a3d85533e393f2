// Package ddfix is the docdrift fixture: a miniature module root with
// its own docs/ tree, deliberately drifted from the code in both
// directions (see the sibling docs/OBSERVABILITY.md and
// docs/ARCHITECTURE.md).
package ddfix

// sink mirrors the name-taking metric surface the analyzer matches
// (methods named Counter/Gauge/Histogram with a literal first arg).
type sink struct{}

func (sink) Counter(name string) int   { return 0 }
func (sink) Gauge(name string) int     { return 0 }
func (sink) Histogram(name string) int { return 0 }

// Config is the knob surface documented in docs/ARCHITECTURE.md.
type Config struct {
	// Window is documented: clean.
	Window int
	// Depth is not documented: code-side drift.
	Depth int
	// Pace is documented, with an empty "Moved by" cell.
	Pace int
	// hidden is unexported and outside the contract.
	hidden int
}

func emit(s sink) {
	s.Counter("ops.issued")  // cataloged with matching kind: clean
	s.Gauge("queue.depth")   // cataloged as a counter: kind mismatch
	s.Counter("ops.dropped") // never cataloged: code-side drift
	s.Counter("ops.shadow")  //lint:allow docdrift — fixture demonstrates the escape hatch
}
