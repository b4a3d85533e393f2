package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// herdload runs the command on args at the shortened windows and
// returns its exit status, stdout and stderr.
func herdload(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"-warmup", "50", "-duration", "150"}, args...), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestGolden pins the full report for a spread of flags. Every line
// but latency matches herdload's output from before it ran on
// experiments.RunE2E; the latency line covers every measured op, GETs
// and PUTs alike, as in Fig 11.
func TestGolden(t *testing.T) {
	for _, tc := range []struct{ args, want string }{
		{"", `
system      herd on Apt
fleet       51 clients, window 4, 6 server cores
workload    95% GET, 32 B values, 49152 keys, uniform
throughput  27.15 Mops
latency     all ops: mean 7.51 us, p5 7.09, p50 7.52, p95 7.91, p99 8.25
hit rate    100.00% over 3881 GETs
reliability 0 retries, 0 duplicate and 0 corrupt responses discarded, 0 timed-out ops, 0 reconnects
`},
		{"-system pilaf -cluster susitna -zipf", `
system      pilaf on Susitna
fleet       51 clients, window 4, 6 server cores
workload    95% GET, 32 B values, 49152 keys, Zipf(.99)
throughput  10.20 Mops
latency     all ops: mean 20.31 us, p5 15.33, p50 16.39, p95 32.50, p99 34.42
hit rate    100.00% over 1451 GETs
`},
		{"-system farm-var -get 0.5", `
system      farm-var on Apt
fleet       51 clients, window 4, 6 server cores
workload    50% GET, 32 B values, 49152 keys, uniform
throughput  17.95 Mops
latency     all ops: mean 11.50 us, p5 10.15, p50 11.78, p95 13.56, p99 15.95
hit rate    100.00% over 1320 GETs
`},
		{"-sendmode -clients 120", `
system      herd on Apt
fleet       120 clients, window 4, 6 server cores
workload    95% GET, 32 B values, 49152 keys, uniform
throughput  21.03 Mops
latency     all ops: mean 22.93 us, p5 21.56, p50 22.68, p95 25.27, p99 26.05
hit rate    100.00% over 2995 GETs
reliability 0 retries, 0 duplicate and 0 corrupt responses discarded, 0 timed-out ops, 0 reconnects
`},
		{"-loss 0.02 -retry 25", `
system      herd on Apt
fleet       51 clients, window 4, 6 server cores
workload    95% GET, 32 B values, 49152 keys, uniform
throughput  26.48 Mops
latency     all ops: mean 5.04 us, p5 2.90, p50 3.91, p95 6.27, p99 31.08
hit rate    100.00% over 3792 GETs
reliability 174 retries, 0 duplicate and 0 corrupt responses discarded, 0 timed-out ops, 0 reconnects
`},
		{"-system farm -value 256 -keys 16384", `
system      farm on Apt
fleet       51 clients, window 4, 6 server cores
workload    95% GET, 256 B values, 16384 keys, uniform
throughput  3.46 Mops
latency     all ops: mean 53.94 us, p5 31.42, p50 60.89, p95 61.20, p99 61.20
hit rate    100.00% over 500 GETs
`},
	} {
		t.Run(tc.args, func(t *testing.T) {
			code, out, errOut := herdload(strings.Fields(tc.args)...)
			if code != 0 || errOut != "" {
				t.Fatalf("exit %d, stderr %q", code, errOut)
			}
			if want := strings.TrimPrefix(tc.want, "\n"); out != want {
				t.Errorf("output:\n%s\nwant:\n%s", out, want)
			}
		})
	}
}

// TestBadFlags checks that a flag the runner cannot build or measure
// exits 2 with a one-line message naming it, before anything runs.
func TestBadFlags(t *testing.T) {
	for _, args := range []string{
		"-cores 0", "-cores 17", "-duration 0", "-get 1.5", "-get NaN",
		"-loss 1.5", "-keys 0", "-clients 0", "-window 0", "-warmup -1",
		"-retry -1", "-value 0", "-value 1001", "-system pilaf -value 5000",
		"-system nope", "-cluster nope",
		"-system pilaf -retry 5", "-system farm -sendmode", "-system farm-var -retry 0",
		"-loss 0.05", "-system pilaf -loss 0.05",
	} {
		t.Run(args, func(t *testing.T) {
			f := strings.Fields(args)
			code, out, errOut := herdload(f...)
			// The flag at fault comes last; every flag takes a value
			// except a trailing boolean one.
			bad := f[len(f)-2]
			if len(f)%2 == 1 {
				bad = f[len(f)-1]
			}
			if code != 2 || out != "" || strings.Contains(errOut, "goroutine") ||
				strings.Count(errOut, "\n") != 1 || !strings.Contains(errOut, strings.TrimPrefix(bad, "-")) {
				t.Errorf("exit %d, stdout %q, stderr %q; want exit 2 and one line naming %s", code, out, errOut, bad)
			}
		})
	}
}

// TestMetricsFile checks that -metrics writes the registry the
// reliability line reads, and that a write failure exits 1.
func TestMetricsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.txt")
	if code, _, errOut := herdload("-metrics", path); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	dump, err := os.ReadFile(path)
	if err != nil || !bytes.Contains(dump, []byte("herd.retries")) {
		t.Fatalf("metrics dump %q, err %v; want herd.retries", dump, err)
	}
	missing := filepath.Join(t.TempDir(), "missing", "metrics.txt")
	if code, _, errOut := herdload("-metrics", missing); code != 1 || errOut == "" {
		t.Errorf("unwritable -metrics: exit %d, stderr %q; want exit 1 and a message", code, errOut)
	}
}
