package experiments

import (
	"encoding/json"
	"io"
	"strconv"

	"herdkv/internal/cluster"
)

// Report is an extension experiment's machine-readable result: herdbench
// -json DIR writes it as DIR/BENCH_<Name>.json and cmd/benchcheck
// ratchets it against baselines/. Every field is a map or a scalar, so
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
