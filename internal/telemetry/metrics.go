package telemetry

import (
	"fmt"
	"io"
	"sort"
)

// Counter is a monotonic counter. A nil *Counter is a valid no-op, so
// instrumented code can hold possibly-nil handles and increment them
// unconditionally. A layer that reads a count per instance owns it as a
// cell (a non-nil Counter), which the registry's counter of that name
// tracks (Track): the event is counted once, and the name reads the sum.
type Counter struct {
	v     uint64
	parts *[]*Counter // the tracked cells; nil until the first Track
}

// Add increments the counter by d.
func (c *Counter) Add(d uint64) {
	if c == nil {
		return
	}
	c.v += d
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// NewCells points each of cells at a fresh zero counter for an instance
// tracking them in sink s. With metrics on, they are cut from 4096-cell
// blocks the registry keeps, so tracked cells, which outlive their
// instances, stay packed instead of pinning scattered heap pages.
func NewCells(s *Sink, cells ...**Counter) {
	var block []Counter
	if r := s.registry(); r == nil {
		block = make([]Counter, len(cells))
	} else {
		if len(r.cells) < len(cells) {
			r.cells = make([]Counter, max(4096, len(cells)))
		}
		block, r.cells = r.cells[:len(cells):len(cells)], r.cells[len(cells):]
	}
	for i, c := range cells {
		*c = &block[i]
	}
}

// Track adds part's count to c's Value. It is a no-op on a nil counter
// (metrics disabled).
func (c *Counter) Track(part *Counter) {
	if c == nil {
		return
	}
	if c.parts == nil {
		c.parts = new([]*Counter)
	}
	*c.parts = append(*c.parts, part)
}

// Value returns the current count, tracked cells included (zero for a
// nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	v := c.v
	if c.parts != nil {
		for _, p := range *c.parts {
			v += p.Value()
		}
	}
	return v
}

// Gauge is a named level with a high-water mark: Set records the current
// value and remembers the maximum ever seen. CQ depths and queue
// backlogs use the mark; the current value is a free extra. A nil *Gauge
// is a valid no-op.
type Gauge struct{ v, max int64 }

// Set records the gauge's current value, updating the high-water mark.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v = v
	if v > g.max {
		g.max = v
	}
}

// Add adjusts the gauge by d (negative deltas allowed).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.Set(g.v + d)
}

// Value returns the gauge's current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Max returns the highest value ever Set.
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max
}

// Registry is an ordered collection of named metrics. Get-or-create
// accessors make wiring cheap: two layers asking for the same name share
// one metric, so per-verb counters aggregate across hosts naturally. A
// named counter also sums the cells tracked under it (Counter.Track):
// the registry holds those cells, never the instances that own them.
//
// Like the rest of the simulation the registry is single-threaded; it
// needs no locks because the whole model runs on one goroutine.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	cells    []Counter // the unused rest of NewCells' current block
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it at zero on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
// Registry histograms record virtual durations in picoseconds
// (sim.Time); WriteText reports them in microseconds.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// WriteText dumps every metric, one per line, sorted by name within each
// kind (counters, then gauges, then histograms):
//
//	counter verbs.WRITE.posted 123456
//	gauge   mux.queue.depth cur=0 max=17
//	hist    herd.get.latency_us count=200 min=1.52 mean=1.87 p50=1.86 p95=2.01 p99=2.10 max=2.20
//
// Histogram statistics are printed in microseconds (values are recorded
// as picosecond sim.Time durations).
func (r *Registry) WriteText(w io.Writer) error {
	names := func(n int) []string { return make([]string, 0, n) }

	cs := names(len(r.counters))
	for name := range r.counters {
		cs = append(cs, name)
	}
	sort.Strings(cs)
	for _, name := range cs {
		if _, err := fmt.Fprintf(w, "counter %s %d\n", name, r.counters[name].Value()); err != nil {
			return err
		}
	}

	gs := names(len(r.gauges))
	for name := range r.gauges {
		gs = append(gs, name)
	}
	sort.Strings(gs)
	for _, name := range gs {
		g := r.gauges[name]
		if _, err := fmt.Fprintf(w, "gauge   %s cur=%d max=%d\n", name, g.Value(), g.Max()); err != nil {
			return err
		}
	}

	hs := names(len(r.hists))
	for name := range r.hists {
		hs = append(hs, name)
	}
	sort.Strings(hs)
	us := func(v int64) float64 { return float64(v) / 1e6 }
	for _, name := range hs {
		h := r.hists[name]
		if _, err := fmt.Fprintf(w,
			"hist    %s_us count=%d min=%.2f mean=%.2f p50=%.2f p95=%.2f p99=%.2f max=%.2f\n",
			name, h.Count(), us(h.Min()), us(int64(h.Mean())),
			us(h.Percentile(50)), us(h.Percentile(95)), us(h.Percentile(99)), us(h.Max())); err != nil {
			return err
		}
	}
	return nil
}
