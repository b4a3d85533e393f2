package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// mainArgsEnv carries the arguments for a re-executed test binary that
// runs main instead of the tests, so a test can observe exit codes.
const mainArgsEnv = "HERDBENCH_MAIN_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(mainArgsEnv); ok {
		os.Args = append([]string{"herdbench"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// herdbench runs main in a child process and returns its exit code,
// stdout and stderr.
func herdbench(t *testing.T, args string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), mainArgsEnv+"="+args)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	code := 0
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatal(err)
		}
		code = exit.ExitCode()
	}
	return code, out.String(), errOut.String()
}

// TestBadWindows checks that a measurement window no target can
// measure exits 2 with a one-line message naming the flag, before any
// target runs.
func TestBadWindows(t *testing.T) {
	for _, args := range []string{"-span 0 fig8", "-span -5 fig8", "-warmup -1 fig8"} {
		t.Run(args, func(t *testing.T) {
			code, out, errOut := herdbench(t, args)
			bad := strings.Fields(args)[0]
			if code != 2 || out != "" || strings.Count(errOut, "\n") != 1 || !strings.Contains(errOut, bad) {
				t.Errorf("exit %d, stdout %q, stderr %q; want exit 2 and one line naming %s", code, out, errOut, bad)
			}
		})
	}
	if code, out, errOut := herdbench(t, "-warmup 0 -span 1 fig8"); code != 0 || out == "" {
		t.Errorf("smallest valid windows: exit %d, stdout %q, stderr %q", code, out, errOut)
	}
}

// TestBadDestinations checks that a -json directory that does not
// exist, a -metrics or -trace file that cannot be created, -perqp
// without -metrics, and -faults without the chaos target each exit 2
// with a one-line message naming the flag, before any target runs.
func TestBadDestinations(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, []byte("loss from=0 until=1ms rate=0.01\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing")
	for _, c := range []struct{ name, args string }{
		{"json-missing", "-json " + missing + " fig8"},
		{"json-not-dir", "-json " + file + " fig8"},
		{"metrics-uncreatable", "-metrics " + filepath.Join(missing, "m.txt") + " fig8"},
		{"trace-uncreatable", "-trace " + filepath.Join(missing, "t.json") + " fig8"},
		{"faults-without-chaos", "-faults " + file + " fig8"},
		{"perqp-without-metrics", "-perqp fig8"},
	} {
		t.Run(c.name, func(t *testing.T) {
			code, out, errOut := herdbench(t, c.args)
			bad := strings.Fields(c.args)[0]
			if code != 2 || out != "" || strings.Count(errOut, "\n") != 1 || !strings.Contains(errOut, bad) {
				t.Errorf("exit %d, stdout %q, stderr %q; want exit 2 and one line naming %s", code, out, errOut, bad)
			}
		})
	}
	metrics, trace := filepath.Join(dir, "m.txt"), filepath.Join(dir, "t.json")
	if code, out, errOut := herdbench(t, "-json "+dir+" -metrics "+metrics+" -trace "+trace+" fig8"); code != 0 || out == "" {
		t.Errorf("valid destinations: exit %d, stdout %q, stderr %q", code, out, errOut)
	}
	for _, f := range []string{metrics, trace} {
		if _, err := os.Stat(f); err != nil {
			t.Error(err)
		}
	}
}
