// Package telemetry is the observability substrate for the simulated
// RDMA stack: a metrics registry (monotonic counters, high-water gauges,
// HDR-style latency histograms) and a request-lifecycle tracer keyed to
// virtual sim.Time, with a Chrome trace_event exporter so a simulated
// run can be opened in chrome://tracing or Perfetto.
//
// The package is zero-dependency (it imports only internal/sim) and is
// threaded through pcie, nic, verbs, core and the layers above behind a
// nil-safe Sink: every handle type (*Counter, *Gauge, *Histogram,
// *Trace) is a valid no-op when nil, so un-instrumented runs pay a
// single nil check per event and allocate nothing on the hot path. A
// named counter sums the per-instance counters tracked under it
// (Counter.Track), so a count a layer also reads per instance is kept
// once. Instrumentation never schedules simulation events, so enabling
// telemetry cannot perturb a deterministic run.
//
// See docs/OBSERVABILITY.md for the metric name catalog and the trace
// span reference.
package telemetry

import "herdkv/internal/sim"

// Sink bundles the telemetry destinations one simulation writes to. A
// nil *Sink (or a nil field) disables the corresponding subsystem; all
// methods are safe on a nil receiver.
type Sink struct {
	// Registry receives counters, gauges and histograms. Nil disables
	// metrics.
	Registry *Registry
	// Tracer receives request-lifecycle spans. Nil disables tracing.
	Tracer *Tracer
	// PerQP additionally maintains per-queue-pair posted/completed
	// counters (verbs.qp.n<node>.q<qpn>.<verb>.*). Off by default: a
	// large fleet creates thousands of QPs and the aggregate per-verb
	// counters are usually what experiments want.
	PerQP bool
}

// New returns a Sink with a metrics registry and no tracer.
func New() *Sink { return &Sink{Registry: NewRegistry()} }

// registry returns the sink's registry, nil when metrics are disabled.
func (s *Sink) registry() *Registry {
	if s == nil {
		return nil
	}
	return s.Registry
}

// Counter returns the named counter, or nil when metrics are disabled.
func (s *Sink) Counter(name string) *Counter {
	return s.registry().Counter(name)
}

// Gauge returns the named gauge, or nil when metrics are disabled.
func (s *Sink) Gauge(name string) *Gauge {
	return s.registry().Gauge(name)
}

// Histogram returns the named histogram, or nil when metrics are
// disabled.
func (s *Sink) Histogram(name string) *Histogram {
	return s.registry().Histogram(name)
}

// Tracing reports whether trace spans should be produced.
func (s *Sink) Tracing() bool { return s != nil && s.Tracer != nil }

// QPScoped reports whether per-QP counters should be maintained.
func (s *Sink) QPScoped() bool { return s != nil && s.PerQP }

// StartTrace begins a request-lifecycle trace named name at virtual
// time at. It returns nil (a valid no-op trace) when tracing is
// disabled.
func (s *Sink) StartTrace(name string, at sim.Time) *Trace {
	if s == nil || s.Tracer == nil {
		return nil
	}
	return s.Tracer.Start(name, at)
}
