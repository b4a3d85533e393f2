package docdrift_test

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"herdkv/internal/lint/analysis"
	"herdkv/internal/lint/docdrift"
	"herdkv/internal/lint/loader"
)

// TestDocDrift runs the analyzer over a fixture module root whose docs
// drift from its code in both directions. Doc-side diagnostics land on
// markdown lines, which `// want` comments cannot express, so this
// test asserts the full diagnostic set directly.
func TestDocDrift(t *testing.T) {
	defer func(target, dir string) {
		docdrift.Target, docdrift.ModuleDir = target, dir
	}(docdrift.Target, docdrift.ModuleDir)
	docdrift.Target = "ddfix"
	docdrift.ModuleDir = filepath.Join("..", "testdata", "src", "ddfix")

	pkgs, err := loader.LoadTestdata("../testdata", ".", "ddfix")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Fatalf("fixture type error: %v", terr)
		}
		pass := &analysis.Pass{
			Analyzer:  docdrift.Analyzer,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Report: func(d analysis.Diagnostic) {
				pos := pkg.Fset.Position(d.Pos)
				got = append(got, filepath.Base(pos.Filename)+": "+d.Message)
			},
		}
		if _, err := docdrift.Analyzer.Run(pass); err != nil {
			t.Fatal(err)
		}
	}

	want := []string{
		`^ddfix\.go: metric queue\.depth is a gauge in code but cataloged as "counter"`,
		`^ddfix\.go: metric ops\.dropped is emitted here but missing from the docs/OBSERVABILITY\.md catalog`,
		`^ddfix\.go: ddfix\.Config\.Depth is not documented in the docs/ARCHITECTURE\.md configuration reference`,
		`^OBSERVABILITY\.md: cataloged metric ops\.retired is not emitted anywhere in the tree`,
		`^ARCHITECTURE\.md: ddfix\.Config has no field Burst \(documented here\)`,
		`^ARCHITECTURE\.md: ddfix\.Config row ` + "`Pace`" + ` has an empty "Moved by" cell`,
		`^ARCHITECTURE\.md: config table for ghost\.Config has no "Moved by" column`,
		`^ARCHITECTURE\.md: config table for ghost\.Config but no such package has a Config struct`,
	}
	if len(got) != len(want) {
		t.Errorf("got %d diagnostics, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for _, w := range want {
		re := regexp.MustCompile(w)
		found := false
		for _, g := range got {
			if re.MatchString(g) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing diagnostic matching %q in:\n%s", w, strings.Join(got, "\n"))
		}
	}
}
