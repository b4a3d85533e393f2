// Command herdlint runs the repo's static-analysis suite: paper-level
// invariants the compiler cannot see, checked on every CI run.
//
//	go run ./cmd/herdlint ./...
//
// Analyzers (see docs/STATIC_ANALYSIS.md):
//
//	simtime       no wall clock / ambient randomness in the model
//	verbsmatrix   Table 1 transport/verb matrix, inline limit,
//	              selective-signaling discipline
//	uncheckedpost discarded verbs errors, unchecked Completion status
//	telemnames    literal telemetry names in the documented grammar
//	hotalloc      //herd:hotpath functions must be allocation-free
//	docdrift      OBSERVABILITY/ARCHITECTURE tables match the code
//
// After the suite, a stale-allow audit reports every `//lint:allow`
// comment that suppressed nothing or names no analyzer (label:
// staleallow). -list prints the index.
//
// Exit status: 0 clean, 1 internal failure, 2 diagnostics reported —
// the same convention go vet uses.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"herdkv/internal/lint/analysis"
	"herdkv/internal/lint/docdrift"
	"herdkv/internal/lint/hotalloc"
	"herdkv/internal/lint/loader"
	"herdkv/internal/lint/simtime"
	"herdkv/internal/lint/telemnames"
	"herdkv/internal/lint/uncheckedpost"
	"herdkv/internal/lint/verbsmatrix"
)

// all is the suite, in reporting order.
var all = []*analysis.Analyzer{
	simtime.Analyzer,
	verbsmatrix.Analyzer,
	uncheckedpost.Analyzer,
	telemnames.Analyzer,
	hotalloc.Analyzer,
	docdrift.Analyzer,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run lints the packages args name (default ./...) in the current
// directory, prints each finding to stdout and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("herdlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *list {
		for _, a := range all {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
		}
		fmt.Fprintf(stdout, "%-14s %s\n", "staleallow", "audit: //lint:allow comments that suppress nothing")
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := loader.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "herdlint: %v\n", err)
		return 1
	}

	var (
		findings   []finding
		usedAllows = map[string]bool{} // "file:line" of allow comments that fired
	)
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(stderr, "herdlint: %s: %v\n", pkg.PkgPath, terr)
			return 1
		}
		for _, a := range all {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			name := a.Name
			pass.Report = func(d analysis.Diagnostic) {
				findings = append(findings, finding{
					pos: loader.Position(pkg.Fset, d.Pos),
					msg: fmt.Sprintf("%s [%s]", d.Message, name),
				})
			}
			if _, err := a.Run(pass); err != nil {
				fmt.Fprintf(stderr, "herdlint: %s on %s: %v\n", a.Name, pkg.PkgPath, err)
				return 1
			}
			for pos := range pass.UsedAllows() {
				p := pkg.Fset.Position(pos)
				usedAllows[fmt.Sprintf("%s:%d", p.Filename, p.Line)] = true
			}
		}
	}

	// Stale-allow audit: an allow comment that suppressed nothing is
	// dead weight — either the finding it silenced was fixed (delete
	// it) or it names the wrong analyzer (repair it).
	known := map[string]bool{"all": true}
	for _, a := range all {
		known[a.Name] = true
	}
	for _, pkg := range pkgs {
		for _, al := range analysis.Allows(pkg.Files) {
			p := pkg.Fset.Position(al.Pos)
			var msg string
			switch {
			case !known[al.Name]:
				msg = fmt.Sprintf("//lint:allow names unknown analyzer %q (try -list) [staleallow]", al.Name)
			case !usedAllows[fmt.Sprintf("%s:%d", p.Filename, p.Line)]:
				msg = fmt.Sprintf("stale //lint:allow %s: suppresses nothing [staleallow]", al.Name)
			default:
				continue
			}
			findings = append(findings, finding{pos: loader.Position(pkg.Fset, al.Pos), msg: msg})
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		if findings[i].pos != findings[j].pos {
			return findings[i].pos < findings[j].pos
		}
		return findings[i].msg < findings[j].msg
	})
	for _, f := range findings {
		fmt.Fprintf(stdout, "%s: %s\n", f.pos, f.msg)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "herdlint: %d finding(s)\n", len(findings))
		return 2
	}
	return 0
}

type finding struct {
	pos string
	msg string
}
