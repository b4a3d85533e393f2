package experiments

import (
	"encoding/json"
	"io"
	"strconv"

	"herdkv/internal/cluster"
)

// Report is an experiment's machine-readable result: herdbench -json DIR
// writes it as DIR/BENCH_<Name>.json and cmd/benchcheck ratchets it
// against baselines/. Every field is a map or a scalar, so
// encoding/json emits sorted keys and the bytes are stable across runs.
type Report struct {
	// Name names the BENCH_<Name>.json file.
	Name    string            `json:"name"`
	Cluster string            `json:"cluster"`
	Params  map[string]string `json:"params,omitempty"`
	// Arms maps each compared configuration (or sweep point) to its
	// measurements.
	Arms map[string]Metrics `json:"arms"`
}

// Metrics holds one arm's measurements by name.
type Metrics map[string]Metric

// Metric is one measurement. Better is Higher or Lower for a metric the
// ratchet gates and "" for an informational one.
type Metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
}

// Directions for Metric.Better.
const (
	Higher = "higher"
	Lower  = "lower"
)

func newReport(name string, spec cluster.Spec) *Report {
	return &Report{Name: name, Cluster: spec.Name, Params: map[string]string{}, Arms: map[string]Metrics{}}
}

// Arm returns the named arm's metrics, adding the arm if it is new.
func (r *Report) Arm(name string) Metrics {
	m, ok := r.Arms[name]
	if !ok {
		m = Metrics{}
		r.Arms[name] = m
	}
	return m
}

// Set records a measurement.
func (m Metrics) Set(name string, value float64, unit, better string) {
	m[name] = Metric{Value: value, Unit: unit, Better: better}
}

// mops records a throughput and returns its table cell.
func (m Metrics) mops(name string, v float64) string {
	m.Set(name, v, "Mops", Higher)
	return cell(v)
}

// us records a latency in microseconds and returns its table cell.
func (m Metrics) us(name string, v float64) string {
	m.Set(name, v, "us", Lower)
	return cell(v)
}

// e2e records one RunE2E point, its goodput and the end-to-end checks
// that every point must pass, and returns the goodput's table cell.
func (m Metrics) e2e(r E2EResult) string {
	m.Set("verify_errors", float64(r.VerifyErr), "count", Lower)
	m.Set("get_misses", float64(r.GetMisses), "count", Lower)
	return m.mops("mops", r.Mops)
}

// ratio is a/b, or 0 when b is 0 (a run that measured nothing).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// itoa formats an integer-valued measurement for a table cell.
func (m Metrics) itoa(name string) string {
	return strconv.FormatFloat(m[name].Value, 'f', 0, 64)
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
