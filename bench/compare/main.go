// Command compare reads two sets of benchmark results, A (the parent)
// and B (the change), as JSON lines written by bench -out, and reports
// for every workload and metric each side's median and quartiles, the
// share of pairs (A's i-th run against B's i-th) that B won, and a
// verdict judged by the metric's direction and bound in BENCHMARK.json:
//
//   - improved: B won at least 9 in 10 pairs (ties count for neither)
//     and the medians differ by more than A's quartile spread;
//   - regressed: B's median is worse than A's by more than the bound
//     (for a metric without a bound, B lost at least 9 in 10 pairs and
//     the medians differ by more than A's quartile spread);
//   - unresolved: A's own quartile spread is wider than the bound;
//   - unchanged: otherwise.
//
// Run from bench/:
//
//	go run ./compare -spec ../BENCHMARK.json -a 'runs/a*.jsonl' -b 'runs/b*.jsonl'
//
// It exits 1 when any metric regressed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json compare reads.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// record is one run's result line.
type record struct {
	Workload string `json:"workload"`
	Metrics  map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	specPath := flag.String("spec", "../BENCHMARK.json", "benchmark declaration with each metric's direction and bound")
	aGlob := flag.String("a", "", "glob of the parent's result files")
	bGlob := flag.String("b", "", "glob of the change's result files")
	flag.Parse()
	if *aGlob == "" || *bGlob == "" {
		fmt.Fprintln(os.Stderr, "compare: -a and -b are required")
		os.Exit(2)
	}
	sp, err := readSpec(*specPath)
	if err != nil {
		fail(err)
	}
	a, err := readRuns(*aGlob)
	if err != nil {
		fail(err)
	}
	b, err := readRuns(*bGlob)
	if err != nil {
		fail(err)
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tB wins\tverdict")
	regressed := false
	for _, w := range sortedKeys(a) {
		for _, m := range append(sp.EndToEnd, sp.PerLayer...) {
			av, bv := values(a[w], m.Name), values(b[w], m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			c := compare(av, bv, m)
			regressed = regressed || c.verdict == "regressed"
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g, %.6g] (n=%d)\t%.6g [%.6g, %.6g] (n=%d)\t%.0f%%\t%s\n",
				w, m.Name, m.Unit, c.a.med, c.a.q1, c.a.q3, len(av), c.b.med, c.b.q1, c.b.q3, len(bv), 100*c.wins, c.verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		fail(err)
	}
	if regressed {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "compare: %v\n", err)
	os.Exit(1)
}

func readSpec(path string) (spec, error) {
	var sp spec
	raw, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(raw, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

// readRuns reads every result line of the files matching glob, grouped
// by workload in file order.
func readRuns(glob string) (map[string][]record, error) {
	files, err := filepath.Glob(glob)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no files match %q", glob)
	}
	runs := make(map[string][]record)
	for _, name := range files {
		if err := readFile(name, runs); err != nil {
			return nil, err
		}
	}
	return runs, nil
}

func readFile(name string, runs map[string][]record) error {
	f, err := os.Open(name)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return fmt.Errorf("%s:%d: %w", name, n, err)
		}
		runs[r.Workload] = append(runs[r.Workload], r)
	}
	return sc.Err()
}

func sortedKeys(m map[string][]record) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// values returns metric name's value in each run that reported it.
func values(runs []record, name string) []float64 {
	var vs []float64
	for _, r := range runs {
		if v, ok := r.Metrics[name]; ok {
			vs = append(vs, v.Value)
		}
	}
	return vs
}

type summary struct{ q1, med, q3 float64 }

// quartiles matches Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method) for two or more values.
func quartiles(xs []float64) summary {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return summary{s[0], s[0], s[0]}
	}
	q := func(i int) float64 {
		m := (n + 1) * i
		j := min(max(m/4, 1), n-1)
		delta := float64(m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return summary{q(1), q(2), q(3)}
}

type comparison struct {
	a, b    summary
	wins    float64 // share of pairs B won
	verdict string
}

func compare(a, b []float64, m metricSpec) comparison {
	c := comparison{a: quartiles(a), b: quartiles(b)}
	// worse is how much worse x is than y, signed by the metric's
	// direction.
	worse := func(x, y float64) float64 {
		if m.Better == "higher" {
			return y - x
		}
		return x - y
	}
	pairs := min(len(a), len(b))
	var won, lost int
	for i := 0; i < pairs; i++ {
		switch d := worse(b[i], a[i]); {
		case d < 0:
			won++
		case d > 0:
			lost++
		}
	}
	c.wins = float64(won) / float64(pairs)
	spread := c.a.q3 - c.a.q1
	diff := math.Abs(c.b.med - c.a.med)
	switch {
	case c.wins >= 0.9 && diff > spread && worse(c.b.med, c.a.med) < 0:
		c.verdict = "improved"
	case m.Bound != nil && worse(c.b.med, c.a.med) > *m.Bound*math.Abs(c.a.med):
		c.verdict = "regressed"
	case m.Bound == nil && float64(lost) >= 0.9*float64(pairs) && diff > spread:
		c.verdict = "regressed"
	case m.Bound != nil && spread > *m.Bound*math.Abs(c.a.med) && !allBetter(a, b, worse):
		c.verdict = "unresolved"
	default:
		c.verdict = "unchanged"
	}
	return c
}

// allBetter reports whether every run of B reads better than every run
// of A.
func allBetter(a, b []float64, worse func(x, y float64) float64) bool {
	for _, x := range b {
		for _, y := range a {
			if worse(x, y) >= 0 {
				return false
			}
		}
	}
	return true
}
