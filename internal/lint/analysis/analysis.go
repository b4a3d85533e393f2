// Package analysis is a minimal, dependency-free re-implementation of
// the golang.org/x/tools/go/analysis API surface that herdlint's
// analyzers program against. The container this repo builds in has no
// module proxy access, so rather than vendoring x/tools we keep the
// same shapes (Analyzer, Pass, Diagnostic) on the standard library's
// go/ast + go/types; if x/tools ever becomes available the analyzers
// port by changing one import path.
//
// Beyond the x/tools surface it bakes in one repo convention: the
// `//lint:allow <analyzer> — reason` suppression comment (see
// docs/STATIC_ANALYSIS.md). Suppression is applied centrally by
// Pass.Reportf, so individual analyzers never re-implement it.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// `//lint:allow <name>` suppression comments.
	Name string
	// Doc is the analyzer's help text; the first line is the summary.
	Doc string
	// Run applies the check to one package.
	Run func(*Pass) (interface{}, error)
}

// Pass presents one type-checked package to an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers a diagnostic. Installed by the driver; analyzers
	// normally call Reportf instead.
	Report func(Diagnostic)

	// allowed maps file -> line -> the `//lint:allow` comments naming
	// this analyzer that cover (their own line or the line above) that
	// line. Built lazily.
	allowed map[*token.File]map[int][]token.Pos

	// usedAllows records the positions of allow comments that actually
	// suppressed a diagnostic in this pass — the input to the driver's
	// stale-allow audit.
	usedAllows map[token.Pos]bool
}

// Diagnostic is one finding at a position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos, unless the line is
// suppressed by a `//lint:allow <analyzer>` comment on the same line or
// the line above.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	if p.suppressed(pos) {
		return
	}
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// suppressed reports whether pos falls on a line covered by an allow
// comment for this analyzer, recording which comments fired.
func (p *Pass) suppressed(pos token.Pos) bool {
	tf := p.Fset.File(pos)
	if tf == nil {
		return false
	}
	if p.allowed == nil {
		p.buildAllowed()
	}
	comments := p.allowed[tf][tf.Line(pos)]
	if len(comments) == 0 {
		return false
	}
	if p.usedAllows == nil {
		p.usedAllows = make(map[token.Pos]bool)
	}
	for _, c := range comments {
		p.usedAllows[c] = true
	}
	return true
}

// UsedAllows returns the positions of the allow comments that
// suppressed at least one diagnostic during this pass.
func (p *Pass) UsedAllows() map[token.Pos]bool { return p.usedAllows }

func (p *Pass) buildAllowed() {
	p.allowed = make(map[*token.File]map[int][]token.Pos)
	for _, f := range p.Files {
		tf := p.Fset.File(f.Pos())
		if tf == nil {
			continue
		}
		lines := p.allowed[tf]
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, ok := parseAllow(c.Text)
				if !ok || (name != p.Analyzer.Name && name != "all") {
					continue
				}
				if lines == nil {
					lines = make(map[int][]token.Pos)
					p.allowed[tf] = lines
				}
				// The comment covers its own line (trailing form) and
				// the next line (preceding form).
				ln := tf.Line(c.End())
				lines[ln] = append(lines[ln], c.Pos())
				lines[ln+1] = append(lines[ln+1], c.Pos())
			}
		}
	}
}

// AllowIn is suppression for analyzers that scan files outside the
// pass (docdrift's whole-tree sweep): it reports whether an allow
// comment for this analyzer in f covers pos's line, and marks it used
// for the stale-allow audit. f must have been parsed with p.Fset.
func (p *Pass) AllowIn(f *ast.File, pos token.Pos) bool {
	tf := p.Fset.File(pos)
	if tf == nil {
		return false
	}
	line := tf.Line(pos)
	for _, al := range Allows([]*ast.File{f}) {
		if al.Name != p.Analyzer.Name && al.Name != "all" {
			continue
		}
		ln := tf.Line(al.End)
		if line == ln || line == ln+1 {
			if p.usedAllows == nil {
				p.usedAllows = make(map[token.Pos]bool)
			}
			p.usedAllows[al.Pos] = true
			return true
		}
	}
	return false
}

// Allow is one `//lint:allow` comment found in a package.
type Allow struct {
	Pos  token.Pos // start of the comment
	End  token.Pos
	Name string // analyzer named by the comment ("all" allowed)
}

// Allows enumerates every `//lint:allow` comment in files, for the
// driver's stale-allow audit.
func Allows(files []*ast.File) []Allow {
	var out []Allow
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if name, ok := parseAllow(c.Text); ok {
					out = append(out, Allow{Pos: c.Pos(), End: c.End(), Name: name})
				}
			}
		}
	}
	return out
}

// parseAllow recognizes `//lint:allow <name> [— reason]` and returns
// the analyzer name. A bare `//lint:allow` without a name matches
// nothing: the convention requires naming the check being silenced.
func parseAllow(text string) (name string, ok bool) {
	const prefix = "//lint:allow"
	if !strings.HasPrefix(text, prefix) {
		return "", false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, prefix))
	if rest == "" {
		return "", false
	}
	fields := strings.Fields(rest)
	return fields[0], true
}
