//go:build sensitivity

package experiments

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"herdkv/internal/cluster"
	"herdkv/internal/sim"
)

// sensitivityFactors scale each constant in turn.
var sensitivityFactors = []float64{0.9, 1.1}

// sensitivityThreshold is the relative move that counts a figure as
// moved by a constant.
const sensitivityThreshold = 0.01

// variant is one run of every target: a preset, optionally with one
// field scaled.
type variant struct {
	preset int
	field  int // index into specFields, -1 for the unperturbed run
	factor float64
	spec   cluster.Spec
}

// move is one metric's relative change against the unperturbed run.
type move struct {
	rel            float64 // (new-old)/|old|; ±Inf when old is 0 or a side lacks the metric
	target, metric string
	factor         float64
}

// TestSensitivity writes docs/SENSITIVITY.md, the matrix of model
// constants against the figures they move (`make sensitivity`; about
// 30 minutes on a 2-core host, so it is not part of tier-1). For each
// preset it runs every report target at the shortened windows, then
// again with each numeric cluster.Spec field scaled ×0.9 and ×1.1, and
// diffs every metric against the unperturbed run. Fig 9 runs on the
// perturbed preset alone. Runs are independent engines, so they go to
// GOMAXPROCS workers; a target must therefore leave package state such
// as Warmup and Span alone.
func TestSensitivity(t *testing.T) {
	defer short(t)()
	fields := specFields()
	presets := cluster.Table2()

	var variants []variant
	for p, spec := range presets {
		variants = append(variants, variant{preset: p, field: -1, factor: 1, spec: spec})
		for f, field := range fields {
			for _, k := range sensitivityFactors {
				s, changed := scaleField(spec, field, k)
				if changed {
					variants = append(variants, variant{preset: p, field: f, factor: k, spec: s})
				}
			}
		}
	}

	type job struct{ v, target int }
	reports := make([][]*Report, len(variants))
	for i := range reports {
		reports[i] = make([]*Report, len(Targets))
	}
	var (
		failMu   sync.Mutex
		failures []string
		done     atomic.Int64
	)
	jobs := make(chan job)
	total := len(variants) * len(Targets)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				rep, err := runSensitivityTarget(Targets[j.target], variants[j.v].spec)
				if err != nil {
					v := variants[j.v]
					failMu.Lock()
					failures = append(failures, fmt.Sprintf("%s %s ×%g: %s: %v",
						presets[v.preset].Name, fieldName(fields, v.field), v.factor, Targets[j.target].Name, err))
					failMu.Unlock()
				}
				reports[j.v][j.target] = rep
				if n := done.Add(1); n%500 == 0 {
					t.Logf("%d/%d runs, %v", n, total, time.Since(start).Round(time.Second))
				}
			}
		}()
	}
	for v := range variants {
		for target := range Targets {
			jobs <- job{v, target}
		}
	}
	close(jobs)
	wg.Wait()
	if Warmup != 50*sim.Microsecond || Span != 150*sim.Microsecond {
		t.Fatalf("a target left the package windows at %v/%v: concurrent runs measured over the wrong windows", Warmup, Span)
	}
	if len(failures) > 0 {
		sort.Strings(failures)
		t.Fatalf("%d runs panicked:\n%s", len(failures), strings.Join(failures, "\n"))
	}

	base := make([]int, len(presets)) // each preset's unperturbed variant
	for i, v := range variants {
		if v.field < 0 {
			base[v.preset] = i
		}
	}
	// moves[preset][field] lists every metric that changed.
	moves := make([][][]move, len(presets))
	for p := range moves {
		moves[p] = make([][]move, len(fields))
	}
	for i, v := range variants {
		if v.field < 0 {
			continue
		}
		for target := range Targets {
			for _, m := range diffReports(reports[base[v.preset]][target], reports[i][target]) {
				m.target, m.factor = Targets[target].Name, v.factor
				moves[v.preset][v.field] = append(moves[v.preset][v.field], m)
			}
		}
	}

	doc := renderSensitivity(presets, fields, moves)
	if err := os.WriteFile(sensitivityDoc, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d runs in %v; wrote %s", total, time.Since(start).Round(time.Second), sensitivityDoc)
}

// runSensitivityTarget runs one target on spec, turning a panic into an
// error. Fig 9 normally runs on both presets whatever spec is; here it
// runs on spec alone so the perturbation reaches it.
func runSensitivityTarget(target Target, spec cluster.Spec) (rep *Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	if target.Name == "fig9" {
		_, rep = fig9(spec)
	} else {
		_, rep = target.Run(spec)
	}
	return rep, nil
}

// scaleField returns spec with field scaled by k (integers rounded) and
// whether the value changed.
func scaleField(spec cluster.Spec, field specField, k float64) (cluster.Spec, bool) {
	v := reflect.ValueOf(&spec).Elem().FieldByIndex(field.index)
	switch v.Kind() {
	case reflect.Float64:
		old := v.Float()
		v.SetFloat(old * k)
		return spec, v.Float() != old
	default:
		old := v.Int()
		v.SetInt(int64(math.Round(float64(old) * k)))
		return spec, v.Int() != old
	}
}

// diffReports returns the relative change of every metric that differs
// between a and b. A metric or arm that only one side has counts as an
// infinite move.
func diffReports(a, b *Report) []move {
	if a == nil || b == nil {
		return nil
	}
	var out []move
	seen := map[string]bool{}
	for arm, ms := range a.Arms {
		for name, m := range ms {
			key := arm + " " + name
			seen[key] = true
			n, ok := b.Arms[arm][name]
			switch {
			case !ok:
				out = append(out, move{rel: math.Inf(-1), metric: key})
			case n.Value != m.Value:
				out = append(out, move{rel: relMove(m.Value, n.Value), metric: key})
			}
		}
	}
	for arm, ms := range b.Arms {
		for name := range ms {
			if key := arm + " " + name; !seen[key] {
				out = append(out, move{rel: math.Inf(1), metric: key})
			}
		}
	}
	return out
}

func relMove(old, new float64) float64 {
	if old == 0 {
		return math.Copysign(math.Inf(1), new)
	}
	return (new - old) / math.Abs(old)
}

func fieldName(fields []specField, i int) string {
	if i < 0 {
		return "unperturbed"
	}
	return fields[i].path
}

// renderSensitivity formats the matrix: one row per constant and preset.
func renderSensitivity(presets []cluster.Spec, fields []specField, moves [][][]move) string {
	var b strings.Builder
	b.WriteString(`# Parameter sensitivity

Generated by ` + "`make sensitivity`" + ` (internal/experiments/sensitivity_test.go,
build tag ` + "`sensitivity`" + `); do not edit by hand. ` + "`go test ./internal/experiments`" + `
checks that every numeric ` + "`cluster.Spec`" + ` field has one row per preset here, and
that each row names a figure or gives a reason (TestSensitivityRows).

Method: every target that returns a report runs at ` + "`-warmup 50 -span 150`" + `
on each preset, once as the preset defines it and once with each numeric
field scaled ×0.9 and ×1.1 (integers rounded; a field that rounds to its
own value is not rerun). Fig 9 runs on the one preset. Every report
metric is compared with the unperturbed run; a figure (report target) is
listed when one of its metrics moves by more than 1%, a metric that
leaves or reaches 0 included. The largest move is the biggest finite
relative change of any metric at either factor. A constant that moves no
figure is deleted or folded (ROADMAP item 5) unless its row says why it
stays.

| Constant | Preset | Value | Figures moved >1% | Largest move | Why it stays |
|---|---|---|---|---|---|
`)
	for f, field := range fields {
		for p, spec := range presets {
			ms := moves[p][f]
			figs := movedFigures(ms)
			figCell, reason := "—", ""
			if len(figs) > 0 {
				figCell = strings.Join(figs, ", ")
			} else {
				reason = sensitivityReasons[field.path]
			}
			fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s | %s |\n",
				field.path, spec.Name, fieldValue(spec, field), figCell, largestMove(ms), reason)
		}
	}
	return b.String()
}

// movedFigures lists, in run order, the targets with a metric moved by
// more than the threshold.
func movedFigures(ms []move) []string {
	var out []string
	for _, target := range Targets {
		for _, m := range ms {
			if m.target == target.Name && math.Abs(m.rel) > sensitivityThreshold {
				out = append(out, target.Name)
				break
			}
		}
	}
	return out
}

// largestMove formats the biggest finite relative move in ms, or, when
// every move is from or to 0, the first of those. Ties go to the
// earliest target, metric and factor, so the matrix is reproducible.
func largestMove(ms []move) string {
	if len(ms) == 0 {
		return "none"
	}
	order := map[string]int{}
	for i, target := range Targets {
		order[target.Name] = i
	}
	rank := func(m move) float64 {
		if math.IsInf(m.rel, 0) {
			return -1
		}
		return math.Abs(m.rel)
	}
	best := ms[0]
	for _, m := range ms[1:] {
		a, b := rank(m), rank(best)
		if a > b || a == b && (order[m.target] < order[best.target] ||
			m.target == best.target && (m.metric < best.metric || m.metric == best.metric && m.factor < best.factor)) {
			best = m
		}
	}
	pct := "from 0 or absent"
	if !math.IsInf(best.rel, 0) {
		pct = fmt.Sprintf("%+.2f%%", 100*best.rel)
	}
	return fmt.Sprintf("%s %s `%s` (×%g)", pct, best.target, best.metric, best.factor)
}

// fieldValue formats a field's preset value: times in ns.
func fieldValue(spec cluster.Spec, field specField) string {
	v := reflect.ValueOf(spec).FieldByIndex(field.index)
	switch {
	case v.Type() == reflect.TypeOf(sim.Time(0)):
		return fmt.Sprintf("%g ns", float64(v.Int())/float64(sim.Nanosecond))
	case v.Kind() == reflect.Float64:
		return fmt.Sprintf("%g", v.Float())
	default:
		return fmt.Sprintf("%d", v.Int())
	}
}
