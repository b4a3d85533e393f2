package main

import (
	"encoding/json"
	"maps"
	"os"
	"slices"
	"testing"

	"herdkv/internal/kv"
	"herdkv/internal/sim"
	"herdkv/internal/telemetry"
	"herdkv/internal/workload"
)

// shortWindow keeps each test run to a few hundred virtual microseconds.
const shortWindow = 100 * sim.Microsecond

func shortOptions(seed int64, trace bool) options {
	return options{seed: seed, window: shortWindow, setups: 1, chunks: 2, trace: trace, sloProbe: shortWindow}
}

func TestVerifierCatchesWrongKey(t *testing.T) {
	d := &loadGen{eng: sim.New(), measuring: true}
	key, other := kv.FromUint64(1), kv.FromUint64(2)
	get := workload.Op{IsGet: true, Key: key}
	hit := func(v []byte) kv.Result { return kv.Result{Key: key, IsGet: true, Status: kv.StatusHit, Value: v} }
	d.complete(get, hit(workload.ExpectedValue(key, valueSize)), 0)
	d.complete(get, hit(workload.ExpectedValue(other, valueSize)), 0)
	d.complete(get, hit(workload.ExpectedValue(key, valueSize)[:valueSize-1]), 0)
	if d.checked != 3 || d.verifyErrors != 2 {
		t.Fatalf("checked %d, errors %d; want 3 checked, 2 errors (another key's value, a torn value)", d.checked, d.verifyErrors)
	}
	rep := &report{checked: d.checked, verifyErrors: d.verifyErrors}
	if rep.result().Correct {
		t.Fatal("a run with verification errors reports correct")
	}
}

// benchmarkSpec is the part of BENCHMARK.json the program must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// emitted returns the metric name -> unit map of a run's JSON result,
// checking the result carries exactly the contract's keys.
func emitted(t *testing.T, rep *report) map[string]string {
	t.Helper()
	line, err := rep.json()
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(line, &top); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	if slices.Sort(keys); !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Fatalf("result keys %v", keys)
	}
	var res result
	if err := json.Unmarshal(line, &res); err != nil {
		t.Fatal(err)
	}
	units := make(map[string]string)
	for name, v := range res.Metrics {
		units[name] = v.Unit
	}
	return units
}

func declared(ms []struct{ Name, Unit string }) map[string]string {
	units := make(map[string]string)
	for _, m := range ms {
		units[m.Name] = m.Unit
	}
	return units
}

func runShort(t *testing.T, w *workloadSpec, seed int64, trace bool) *report {
	t.Helper()
	rep, err := run(w, shortOptions(seed, trace))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.correct() || rep.failed != 0 || rep.attempted == 0 {
		t.Fatalf("%s: correct %v, %d failed of %d attempted", w.name, rep.correct(), rep.failed, rep.attempted)
	}
	return rep
}

// TestSchemaAndDeterminism runs every workload on a short window: the
// metric names and units match BENCHMARK.json in both modes, a seed
// repeats its modeled metrics exactly, and another seed changes them.
func TestSchemaAndDeterminism(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(names, ours) {
		t.Fatalf("BENCHMARK.json workloads %v, program %v", names, ours)
	}
	for _, w := range workloads {
		a := runShort(t, w, 1, false)
		if got, want := emitted(t, a), declared(spec.EndToEnd); !maps.Equal(got, want) {
			t.Errorf("%s end-to-end metrics %v, BENCHMARK.json declares %v", w.name, got, want)
		}
		b := runShort(t, w, 1, false)
		c := runShort(t, w, 2, false)
		for _, m := range []string{"goodput_mops", "get_p50_us", "get_p99_us", "get_p999_us", "put_p50_us", "put_p99_us"} {
			if a.values[m] != b.values[m] {
				t.Errorf("%s %s: %v then %v at the same seed", w.name, m, a.values[m], b.values[m])
			}
		}
		if a.values["get_p50_us"] == c.values["get_p50_us"] && a.values["goodput_mops"] == c.values["goodput_mops"] &&
			a.values["put_p99_us"] == c.values["put_p99_us"] {
			t.Errorf("%s: seed 2 reproduced seed 1's modeled metrics", w.name)
		}
		tr := runShort(t, w, 1, true)
		if got, want := emitted(t, tr), declared(spec.PerLayer); !maps.Equal(got, want) {
			t.Errorf("%s per-layer metrics %v, BENCHMARK.json declares %v", w.name, got, want)
		}
	}
}

// TestTraceDoesNotPerturb checks that a traced window reports the same
// modeled metrics as an untraced one: telemetry schedules no events.
func TestTraceDoesNotPerturb(t *testing.T) {
	for _, w := range workloads {
		plain, err := newSession(w, 1, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := modeled(plain.measure(shortWindow, 2))
		tel := &telemetry.Sink{Registry: telemetry.NewRegistry(), Tracer: telemetry.NewTracer()}
		traced, err := newSession(w, 1, tel, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := modeled(traced.measure(shortWindow, 2))
		if !maps.Equal(got, want) {
			t.Errorf("%s: traced %v, untraced %v", w.name, got, want)
		}
		if tel.Tracer.SpanCount() == 0 {
			t.Errorf("%s: traced run recorded no spans", w.name)
		}
	}
}
