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
//	lockorder     mutex ordering cycles, callbacks/sends under a lock
//	docdrift      OBSERVABILITY/ARCHITECTURE tables match the code
//
// When the full suite runs, a stale-allow audit also reports every
// `//lint:allow` comment that suppressed nothing (label: staleallow).
// -fix applies the suggested fixes analyzers attach (stale-allow
// removal, telemetry name repairs, Sprintf-of-literal rewrites) and
// reports only what it could not fix.
//
// Exit status: 0 clean, 1 internal failure, 2 diagnostics reported —
// the same convention go vet uses. Select a subset of analyzers with
// -only, e.g. -only simtime,telemnames.
package main

import (
	"flag"
	"fmt"
	"go/token"
	"os"
	"sort"
	"strings"

	"herdkv/internal/lint/analysis"
	"herdkv/internal/lint/docdrift"
	"herdkv/internal/lint/fixer"
	"herdkv/internal/lint/hotalloc"
	"herdkv/internal/lint/loader"
	"herdkv/internal/lint/lockorder"
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
	lockorder.Analyzer,
	docdrift.Analyzer,
}

func main() {
	var (
		only      = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
		maxInline = flag.Int("maxinline", verbsmatrix.MaxInline, "device inline limit assumed by verbsmatrix")
		list      = flag.Bool("list", false, "list analyzers and exit")
		fix       = flag.Bool("fix", false, "apply suggested fixes to the source files")
	)
	flag.Parse()
	if *list {
		for _, a := range all {
			fmt.Printf("%-14s %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
		}
		fmt.Printf("%-14s %s\n", "staleallow", "audit: //lint:allow comments that suppress nothing (full suite only)")
		return
	}
	verbsmatrix.MaxInline = *maxInline

	analyzers := all
	if *only != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range all {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "herdlint: unknown analyzer %q (try -list)\n", name)
				os.Exit(1)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := loader.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "herdlint: %v\n", err)
		os.Exit(1)
	}

	var (
		fset       *token.FileSet
		findings   []finding
		usedAllows = map[string]bool{} // "file:line" of allow comments that fired
	)
	for _, pkg := range pkgs {
		fset = pkg.Fset
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "herdlint: %s: %v\n", pkg.PkgPath, terr)
			os.Exit(1)
		}
		for _, a := range analyzers {
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
					pos:   loader.Position(pkg.Fset, d.Pos),
					msg:   fmt.Sprintf("%s [%s]", d.Message, name),
					fixes: d.SuggestedFixes,
				})
			}
			if _, err := a.Run(pass); err != nil {
				fmt.Fprintf(os.Stderr, "herdlint: %s on %s: %v\n", a.Name, pkg.PkgPath, err)
				os.Exit(1)
			}
			for pos := range pass.UsedAllows() {
				p := pkg.Fset.Position(pos)
				usedAllows[fmt.Sprintf("%s:%d", p.Filename, p.Line)] = true
			}
		}
	}

	// Stale-allow audit: with the full suite loaded, an allow comment
	// that suppressed nothing is dead weight — either the finding it
	// silenced was fixed (delete it) or it names the wrong analyzer
	// (repair it). Running a subset would make every other analyzer's
	// allows look stale, so the audit needs the whole suite.
	if *only == "" {
		known := map[string]bool{"all": true}
		for _, a := range all {
			known[a.Name] = true
		}
		for _, pkg := range pkgs {
			for _, al := range analysis.Allows(pkg.Files) {
				p := pkg.Fset.Position(al.Pos)
				key := fmt.Sprintf("%s:%d", p.Filename, p.Line)
				switch {
				case !known[al.Name]:
					findings = append(findings, finding{
						pos:   loader.Position(pkg.Fset, al.Pos),
						msg:   fmt.Sprintf("//lint:allow names unknown analyzer %q (try -list) [staleallow]", al.Name),
						fixes: deleteComment(pkg.Fset, al),
					})
				case !usedAllows[key]:
					findings = append(findings, finding{
						pos:   loader.Position(pkg.Fset, al.Pos),
						msg:   fmt.Sprintf("stale //lint:allow %s: suppresses nothing [staleallow]", al.Name),
						fixes: deleteComment(pkg.Fset, al),
					})
				}
			}
		}
	}

	if *fix {
		applied, err := applyFixes(fset, findings)
		if err != nil {
			fmt.Fprintf(os.Stderr, "herdlint: applying fixes: %v\n", err)
			os.Exit(1)
		}
		if applied > 0 {
			fmt.Fprintf(os.Stderr, "herdlint: applied %d fix(es)\n", applied)
		}
		// Fixed findings are resolved; only the rest still fail the run.
		var rest []finding
		for _, f := range findings {
			if len(f.fixes) == 0 {
				rest = append(rest, f)
			}
		}
		findings = rest
	}

	sort.Slice(findings, func(i, j int) bool {
		if findings[i].pos != findings[j].pos {
			return findings[i].pos < findings[j].pos
		}
		return findings[i].msg < findings[j].msg
	})
	for _, f := range findings {
		fmt.Printf("%s: %s\n", f.pos, f.msg)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "herdlint: %d finding(s)\n", len(findings))
		os.Exit(2)
	}
}

type finding struct {
	pos   string
	msg   string
	fixes []analysis.SuggestedFix
}

// applyFixes writes every finding's suggested fixes to disk.
func applyFixes(fset *token.FileSet, findings []finding) (int, error) {
	if fset == nil {
		return 0, nil
	}
	var fixes []analysis.SuggestedFix
	for _, f := range findings {
		fixes = append(fixes, f.fixes...)
	}
	return fixer.Apply(fset, fixes)
}

// deleteComment is the stale-allow autofix: remove the comment.
func deleteComment(fset *token.FileSet, al analysis.Allow) []analysis.SuggestedFix {
	return []analysis.SuggestedFix{{
		Message:   "delete the stale //lint:allow comment",
		TextEdits: []analysis.TextEdit{{Pos: al.Pos, End: al.End}},
	}}
}
