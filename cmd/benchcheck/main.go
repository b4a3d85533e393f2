// Command benchcheck is the benchmark ratchet: it compares every
// committed baseline report against the freshly generated one of the
// same name and fails when any gated metric regressed.
//
// Usage:
//
//	benchcheck baselines/ DIR
//
// Every baselines/BENCH_*.json must have a DIR/BENCH_*.json of the same
// name (written by `herdbench -json DIR`), and every DIR/BENCH_*.json a
// baseline, so a new report cannot stay outside the ratchet. A metric is gated when its
// baseline `better` field is "higher" or "lower"; it fails when it is
// worse than the baseline by more than 5% of |baseline| (so a
// lower-is-better metric with a zero baseline fails on any rise), and
// when it is missing from the fresh report — a renamed metric silently
// dropping out of the ratchet is exactly the drift this tool exists to
// catch. Informational metrics (empty `better`) are ignored.
// Improvements and new gated metrics are reported but never fail.
//
// The simulator is deterministic, so a regression here is a real code
// change slowing a measured path, not noise; the slack exists only to
// absorb intentional small trade-offs without a baseline churn per PR.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"herdkv/internal/experiments"
)

// maxRegress is the allowed worsening as a fraction of |baseline|.
const maxRegress = 0.05

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchcheck baselines/ DIR")
		os.Exit(2)
	}
	ok, err := check(os.Stdout, os.Args[1], os.Args[2])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if !ok {
		fmt.Printf("benchcheck: %s regressed vs %s\n", os.Args[2], os.Args[1])
		os.Exit(1)
	}
}

// check compares every baseline report in baseDir against its namesake
// in freshDir, printing one line per gated metric. It returns false when
// a file or gated metric is missing, a fresh report has no baseline, or
// a metric regressed.
func check(w io.Writer, baseDir, freshDir string) (bool, error) {
	files, err := filepath.Glob(filepath.Join(baseDir, "BENCH_*.json"))
	if err != nil {
		return false, err
	}
	if len(files) == 0 {
		return false, fmt.Errorf("no BENCH_*.json baselines in %s", baseDir)
	}
	ok := true
	for _, path := range files {
		file := filepath.Base(path)
		base, err := load(path)
		if err != nil {
			return false, err
		}
		fresh, err := load(filepath.Join(freshDir, file))
		if os.IsNotExist(err) {
			fmt.Fprintf(w, "FAIL %s: in %s but missing from %s\n", file, baseDir, freshDir)
			ok = false
			continue
		}
		if err != nil {
			return false, err
		}
		for _, key := range sortedKeys(base) {
			was := base[key]
			now, found := fresh[key]
			name := file + " " + key
			switch {
			case !found:
				fmt.Fprintf(w, "FAIL %s: in baseline (%.6g) but missing\n", name, was.Value)
				ok = false
			case worse(was, now.Value) > maxRegress*math.Abs(was.Value):
				fmt.Fprintf(w, "FAIL %s: %.6g -> %.6g (%s is better, limit %.0f%%)\n",
					name, was.Value, now.Value, was.Better, maxRegress*100)
				ok = false
			default:
				fmt.Fprintf(w, "  ok %s: %.6g -> %.6g\n", name, was.Value, now.Value)
			}
		}
		for _, key := range sortedKeys(fresh) {
			if _, found := base[key]; !found {
				fmt.Fprintf(w, " new %s %s: %.6g (no baseline yet)\n", file, key, fresh[key].Value)
			}
		}
	}
	freshFiles, err := filepath.Glob(filepath.Join(freshDir, "BENCH_*.json"))
	if err != nil {
		return false, err
	}
	for _, path := range freshFiles {
		file := filepath.Base(path)
		if _, err := os.Stat(filepath.Join(baseDir, file)); os.IsNotExist(err) {
			fmt.Fprintf(w, "FAIL %s: in %s but has no baseline in %s\n", file, freshDir, baseDir)
			ok = false
		}
	}
	return ok, nil
}

// worse is how far now is from was in the metric's bad direction
// (negative for an improvement).
func worse(was experiments.Metric, now float64) float64 {
	if was.Better == experiments.Lower {
		return now - was.Value
	}
	return was.Value - now
}

// load reads a report and flattens its gated metrics to "arm.metric"
// keys; informational metrics are dropped and an unknown direction is an
// error.
func load(path string) (map[string]experiments.Metric, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep experiments.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	gated := map[string]experiments.Metric{}
	for arm, metrics := range rep.Arms {
		for name, m := range metrics {
			switch m.Better {
			case experiments.Higher, experiments.Lower:
				gated[arm+"."+name] = m
			case "":
			default:
				return nil, fmt.Errorf("%s: %s.%s: unknown better %q", path, arm, name, m.Better)
			}
		}
	}
	return gated, nil
}

func sortedKeys(m map[string]experiments.Metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
