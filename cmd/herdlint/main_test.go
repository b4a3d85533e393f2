package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestStaleAllowAudit runs the whole suite over a fixture module whose
// only findings are the audit's: a stale allow and an unknown name.
// The allow that silences a real hotalloc finding is not reported.
func TestStaleAllowAudit(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Join("testdata", "stale")); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})

	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2; stderr:\n%s", code, stderr.String())
	}
	want := `stale.go:13:15: stale //lint:allow simtime: suppresses nothing [staleallow]
stale.go:16:1: //lint:allow names unknown analyzer "nosuch" (try -list) [staleallow]
`
	if got := stdout.String(); got != want {
		t.Errorf("findings:\n%s\nwant:\n%s", got, want)
	}
}

// TestFlags pins the command line: -list is the only flag, and it
// indexes the audit alongside the analyzers.
func TestFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h: exit %d", code)
	}
	if got := strings.Count(stderr.String(), "\n  -"); got != 1 || !strings.Contains(stderr.String(), "-list") {
		t.Errorf("-h lists %d flags, want only -list:\n%s", got, stderr.String())
	}

	stdout.Reset()
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list: exit %d", code)
	}
	for _, name := range []string{"simtime", "verbsmatrix", "uncheckedpost", "telemnames", "hotalloc", "docdrift", "staleallow"} {
		if !strings.Contains(stdout.String(), name+" ") {
			t.Errorf("-list omits %s:\n%s", name, stdout.String())
		}
	}
}
