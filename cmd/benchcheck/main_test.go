package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"herdkv/internal/experiments"
)

// writeReport writes a one-arm BENCH_<name>.json into dir.
func writeReport(t *testing.T, dir, name string, metrics experiments.Metrics) {
	t.Helper()
	rep := &experiments.Report{Name: name, Cluster: "Apt", Arms: map[string]experiments.Metrics{"arm": metrics}}
	f, err := os.Create(filepath.Join(dir, "BENCH_"+name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCheck(t *testing.T) {
	mops := func(v float64) experiments.Metric {
		return experiments.Metric{Value: v, Unit: "Mops", Better: experiments.Higher}
	}
	us := func(v float64) experiments.Metric {
		return experiments.Metric{Value: v, Unit: "us", Better: experiments.Lower}
	}
	info := func(v float64) experiments.Metric { return experiments.Metric{Value: v, Unit: "count"} }
	base := experiments.Metrics{"mops": mops(100), "p99": us(10), "lost": us(0), "shed": info(5)}
	with := func(name string, m experiments.Metric) experiments.Metrics {
		out := experiments.Metrics{}
		for k, v := range base {
			out[k] = v
		}
		out[name] = m
		return out
	}
	without := func(name string) experiments.Metrics {
		out := with(name, experiments.Metric{})
		delete(out, name)
		return out
	}

	for _, tc := range []struct {
		name  string
		fresh experiments.Metrics // nil: no fresh file at all
		pass  bool
		line  string
	}{
		{"unchanged", base, true, "  ok BENCH_t.json arm.mops: 100 -> 100"},
		{"higher drop within slack", with("mops", mops(95.5)), true, ""},
		{"higher drop fails", with("mops", mops(94)), false, "FAIL BENCH_t.json arm.mops"},
		{"lower rise fails", with("p99", us(10.6)), false, "FAIL BENCH_t.json arm.p99"},
		{"zero-baseline lower rise fails", with("lost", us(0.001)), false, "FAIL BENCH_t.json arm.lost"},
		{"missing metric fails", without("p99"), false, "FAIL BENCH_t.json arm.p99: in baseline"},
		{"missing file fails", nil, false, "FAIL BENCH_t.json: in"},
		{"informational change ignored", with("shed", info(500)), true, ""},
		{"informational removal ignored", without("shed"), true, ""},
		{"improvements pass", with("p99", us(1)), true, ""},
		{"new metric passes", with("extra", mops(1)), true, " new BENCH_t.json arm.extra"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseDir, freshDir := t.TempDir(), t.TempDir()
			writeReport(t, baseDir, "t", base)
			if tc.fresh != nil {
				writeReport(t, freshDir, "t", tc.fresh)
			}
			var out strings.Builder
			ok, err := check(&out, baseDir, freshDir)
			if err != nil {
				t.Fatal(err)
			}
			if ok != tc.pass {
				t.Errorf("check = %v, want %v:\n%s", ok, tc.pass, out.String())
			}
			if !strings.Contains(out.String(), tc.line) {
				t.Errorf("output lacks %q:\n%s", tc.line, out.String())
			}
		})
	}
	t.Run("unbaselined file fails", func(t *testing.T) {
		baseDir, freshDir := t.TempDir(), t.TempDir()
		writeReport(t, baseDir, "t", base)
		writeReport(t, freshDir, "t", base)
		writeReport(t, freshDir, "u", base)
		var out strings.Builder
		if ok, err := check(&out, baseDir, freshDir); err != nil || ok {
			t.Fatalf("check = %v, %v; want a failure:\n%s", ok, err, out.String())
		}
		if want := "FAIL BENCH_u.json: in"; !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	})
}

func TestCheckNewLinesSorted(t *testing.T) {
	baseDir, freshDir := t.TempDir(), t.TempDir()
	writeReport(t, baseDir, "t", experiments.Metrics{"m": {Value: 1, Better: experiments.Higher}})
	fresh := experiments.Metrics{"m": {Value: 1, Better: experiments.Higher}}
	for _, name := range []string{"e", "c", "a", "d", "b"} {
		fresh[name] = experiments.Metric{Value: 1, Better: experiments.Higher}
	}
	writeReport(t, freshDir, "t", fresh)
	var out strings.Builder
	if _, err := check(&out, baseDir, freshDir); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, " new ") {
			got = append(got, strings.Fields(line)[2])
		}
	}
	if want := "arm.a: arm.b: arm.c: arm.d: arm.e:"; strings.Join(got, " ") != want {
		t.Fatalf("new lines %q, want %q", got, want)
	}
}

func TestCheckUnknownDirection(t *testing.T) {
	dir := t.TempDir()
	writeReport(t, dir, "t", experiments.Metrics{"m": {Value: 1, Better: "up"}})
	if _, err := check(&strings.Builder{}, dir, dir); err == nil {
		t.Fatal("metric with better \"up\" accepted")
	}
}

func TestCheckNoBaselines(t *testing.T) {
	if _, err := check(&strings.Builder{}, t.TempDir(), t.TempDir()); err == nil {
		t.Fatal("empty baseline directory accepted")
	}
}
