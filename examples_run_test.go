package herdkv_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestExamplesRun executes every example binary end to end and checks a
// signature line of its output — the examples are documentation, so
// they must keep working.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples take a few seconds each")
	}
	cases := []struct {
		dir  string
		want string
	}{
		{"quickstart", "all in one network round trip each"},
		{"webcache", "cache hit rate"},
		{"baselines", "HERD's single round trip wins"},
		{"skewstudy", "core max/min ratio"},
		{"scaleout", "post-migration: 2048/2048 reads served, failed=0"},
		{"sequencer", "duplicates: 0"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.dir, func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", "run", "./examples/"+c.dir).CombinedOutput()
			if err != nil {
				t.Fatalf("example %s failed: %v\n%s", c.dir, err, out)
			}
			if !strings.Contains(string(out), c.want) {
				t.Fatalf("example %s output missing %q:\n%s", c.dir, c.want, out)
			}
		})
	}
}

// TestBenchModuleBuilds vets the nested benchmark module (bench/, its
// own go.mod), which `go build ./...` and `go test ./...` here never
// compile: an internal API the benchmark calls cannot be removed or
// changed without this test failing.
func TestBenchModuleBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a second module")
	}
	cmd := exec.Command("go", "vet", "./...")
	cmd.Dir = "bench"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet in bench/ failed: %v\n%s", err, out)
	}
}
