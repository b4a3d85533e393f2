package main

import "testing"

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want summary
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, summary{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, summary{1, 2, 3}},
		{[]float64{5, 7}, summary{4.5, 6, 7.5}},
		{[]float64{10.5, 9.25, 11, 12.75, 8}, summary{8.625, 10.5, 11.875}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestVerdicts(t *testing.T) {
	bound := 0.02
	lower := metricSpec{Better: "lower", Bound: &bound}
	higher := metricSpec{Better: "higher", Bound: &bound}
	unbounded := metricSpec{Better: "lower"}
	base := []float64{100, 101, 99, 100, 100.5, 99.5, 100, 100, 101, 99}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{80, 120, 90, 110, 100, 85, 115, 95, 105, 100}
	for _, c := range []struct {
		name string
		a, b []float64
		m    metricSpec
		want string
	}{
		{"identical", base, base, lower, "unchanged"},
		{"within bound", base, scale(1.01), lower, "unchanged"},
		{"lower is better, faster", base, scale(0.9), lower, "improved"},
		{"lower is better, slower", base, scale(1.1), lower, "regressed"},
		{"higher is better, larger", base, scale(1.1), higher, "improved"},
		{"higher is better, smaller", base, scale(0.9), higher, "regressed"},
		{"spread wider than bound", noisy, noisy, lower, "unresolved"},
		{"unbounded, always worse", base, scale(1.1), unbounded, "regressed"},
	} {
		if got := compare(c.a, c.b, c.m).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
