// Package docdrift cross-checks the prose contracts against the code:
// the OBSERVABILITY.md metric catalog against the telemetry name
// literals actually emitted, and the ARCHITECTURE.md configuration
// reference against the exported Config struct fields, in both
// directions. A metric the docs promise but nothing emits, a counter
// the code added but never cataloged, a config knob renamed without
// its table row — each is a diagnostic, so the docs stay a contract
// instead of a snapshot. Every configuration row must also fill its
// "Moved by" cell: the experiment whose ratcheted metric moves when the
// knob flips, or why the knob is test-only.
//
// The analyzer runs once, anchored to the module's root package, and
// does its own whole-tree sweep (parse-only, no type checking): the
// docs describe the tree, not any single package. Diagnostics land on
// the offending code literal or on the exact markdown table line.
//
// Catalog rows whose name contains a <placeholder> (per-verb, per-QP
// names built at runtime) are documentation-only and skipped. Code
// sites that intentionally emit an uncataloged name can carry
// `//lint:allow docdrift — reason`.
package docdrift

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"

	"herdkv/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "docdrift",
	Doc: "cross-check OBSERVABILITY.md / ARCHITECTURE.md tables against the code\n\n" +
		"Metric catalog rows must match emitted telemetry name literals and\n" +
		"config-reference tables must match exported Config fields, both ways.",
	Run: run,
}

// Target is the package path that triggers the sweep (the module root
// package — running on any subset that excludes it skips docdrift).
// Fixture tests override Target and ModuleDir.
var (
	Target    = "herdkv"
	ModuleDir = "" // empty: derived from the target package's file directory
)

// ObservabilityDoc and ArchitectureDoc locate the two contracts,
// relative to the module root.
const (
	ObservabilityDoc = "docs/OBSERVABILITY.md"
	ArchitectureDoc  = "docs/ARCHITECTURE.md"
)

func run(pass *analysis.Pass) (interface{}, error) {
	if pass.Pkg.Path() != Target {
		return nil, nil
	}
	root := ModuleDir
	if root == "" && len(pass.Files) > 0 {
		dir := filepath.Dir(pass.Fset.Position(pass.Files[0].Pos()).Filename)
		for d := dir; ; {
			if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
				root = d
				break
			}
			parent := filepath.Dir(d)
			if parent == d {
				break
			}
			d = parent
		}
	}
	if root == "" {
		return nil, fmt.Errorf("cannot locate module root for %s", pass.Pkg.Path())
	}

	d := &drift{pass: pass, root: root}
	if err := d.sweepTree(); err != nil {
		return nil, err
	}
	if err := d.checkMetrics(); err != nil {
		return nil, err
	}
	if err := d.checkConfigs(); err != nil {
		return nil, err
	}
	d.flush()
	return nil, nil
}

type drift struct {
	pass *analysis.Pass
	root string

	// code side, from the sweep
	emitted    map[string]metricUse        // metric name -> first literal site
	configPkgs map[string]map[string]field // last path segment -> exported Config fields

	// deferred diagnostics, sorted before reporting for determinism
	diags []diag
}

type metricUse struct {
	kind string // counter | gauge | hist
	pos  token.Pos
	file *ast.File
}

type field struct {
	pos  token.Pos
	file *ast.File
}

type diag struct {
	pos token.Pos
	msg string
}

func (d *drift) reportf(pos token.Pos, format string, args ...interface{}) {
	d.diags = append(d.diags, diag{pos: pos, msg: fmt.Sprintf(format, args...)})
}

func (d *drift) flush() {
	sort.Slice(d.diags, func(i, j int) bool {
		pi := d.pass.Fset.Position(d.diags[i].pos)
		pj := d.pass.Fset.Position(d.diags[j].pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return d.diags[i].msg < d.diags[j].msg
	})
	for _, dg := range d.diags {
		d.pass.Reportf(dg.pos, "%s", dg.msg)
	}
}

// metricMethods maps telemetry registry methods to catalog kinds.
var metricMethods = map[string]string{
	"Counter":   "counter",
	"Gauge":     "gauge",
	"Histogram": "hist",
}

// sweepTree parses every shipped .go file in the module (comments on,
// no type checking) collecting metric-name literals and Config fields.
func (d *drift) sweepTree() error {
	d.emitted = map[string]metricUse{}
	d.configPkgs = map[string]map[string]field{}
	return filepath.WalkDir(d.root, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			switch e.Name() {
			case ".git", "testdata", "docs", ".github":
				return filepath.SkipDir
			}
			return nil
		}
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(d.pass.Fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		pkgSeg := filepath.Base(filepath.Dir(path))
		d.scanFile(f, pkgSeg)
		return nil
	})
}

func (d *drift) scanFile(f *ast.File, pkgSeg string) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || len(n.Args) == 0 {
				return true
			}
			kind, ok := metricMethods[sel.Sel.Name]
			if !ok {
				return true
			}
			lit, ok := n.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true // dynamic name (fmt.Sprintf per-verb etc.): catalog rows use <placeholders>
			}
			name := strings.Trim(lit.Value, "`\"")
			if _, seen := d.emitted[name]; !seen {
				d.emitted[name] = metricUse{kind: kind, pos: lit.Pos(), file: f}
			}
		case *ast.TypeSpec:
			if n.Name.Name != "Config" {
				return true
			}
			st, ok := n.Type.(*ast.StructType)
			if !ok {
				return true
			}
			fields := d.configPkgs[pkgSeg]
			if fields == nil {
				fields = map[string]field{}
				d.configPkgs[pkgSeg] = fields
			}
			for _, fl := range st.Fields.List {
				for _, id := range fl.Names {
					if id.IsExported() {
						fields[id.Name] = field{pos: id.Pos(), file: f}
					}
				}
			}
		}
		return true
	})
}

// mdFile registers a markdown file with the pass FileSet so catalog
// diagnostics carry real positions.
type mdFile struct {
	tf    *token.File
	lines []string
}

func (d *drift) loadDoc(rel string) (*mdFile, error) {
	path := filepath.Join(d.root, filepath.FromSlash(rel))
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	tf := d.pass.Fset.AddFile(path, -1, len(data))
	tf.SetLinesForContent(data)
	return &mdFile{tf: tf, lines: strings.Split(string(data), "\n")}, nil
}

// linePos returns the position of 1-based line n.
func (m *mdFile) linePos(n int) token.Pos {
	return m.tf.LineStart(n)
}

var backtickRE = regexp.MustCompile("`([^`]+)`")

// --- metric catalog ----------------------------------------------------

type catalogRow struct {
	kind string
	line int
}

// checkMetrics parses the "## Metric catalog" table and diffs it
// against the emitted literals.
func (d *drift) checkMetrics() error {
	doc, err := d.loadDoc(ObservabilityDoc)
	if err != nil {
		return err
	}
	catalog := map[string]catalogRow{}
	inSection, inTable := false, false
	for i, line := range doc.lines {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "## ") {
			inSection = trimmed == "## Metric catalog"
			inTable = false
			continue
		}
		if !inSection {
			continue
		}
		if !strings.HasPrefix(trimmed, "|") {
			inTable = false
			continue
		}
		// Skip the header and separator rows of each table.
		if !inTable {
			inTable = true
			continue
		}
		if strings.HasPrefix(strings.ReplaceAll(trimmed, " ", ""), "|---") {
			continue
		}
		cells := splitRow(trimmed)
		if len(cells) < 2 {
			continue
		}
		names := expandNames(backtickRE.FindAllStringSubmatch(cells[0], -1))
		kind := strings.TrimSpace(cells[1])
		for _, name := range names {
			if strings.Contains(name, "<") {
				continue // runtime-templated names are documentation-only
			}
			if prev, dup := catalog[name]; dup {
				d.reportf(doc.linePos(i+1), "metric %s cataloged twice (also line %d)", name, prev.line)
				continue
			}
			catalog[name] = catalogRow{kind: kind, line: i + 1}
		}
	}
	if len(catalog) == 0 {
		d.reportf(doc.linePos(1), "no metric catalog table found under %q", "## Metric catalog")
		return nil
	}

	for name, use := range d.emitted {
		row, ok := catalog[name]
		if !ok {
			if !d.pass.AllowIn(use.file, use.pos) {
				d.reportf(use.pos, "metric %s is emitted here but missing from the %s catalog", name, ObservabilityDoc)
			}
			continue
		}
		if row.kind != use.kind {
			d.reportf(use.pos, "metric %s is a %s in code but cataloged as %q (%s line %d)",
				name, use.kind, row.kind, ObservabilityDoc, row.line)
		}
	}
	for name, row := range catalog {
		if _, ok := d.emitted[name]; !ok {
			d.reportf(doc.linePos(row.line), "cataloged metric %s is not emitted anywhere in the tree", name)
		}
	}
	return nil
}

// expandNames resolves the catalog's shorthand: a full dotted name
// establishes a base, a `.suffix` token swaps the last segments of
// that base (`herd.ops.issued` / `.completed` -> herd.ops.completed).
func expandNames(matches [][]string) []string {
	var out []string
	base := ""
	for _, m := range matches {
		name := strings.TrimSpace(m[1])
		if name == "" {
			continue
		}
		if strings.HasPrefix(name, ".") {
			if base == "" {
				continue
			}
			out = append(out, base+name)
			continue
		}
		if !strings.Contains(name, ".") {
			continue // prose in backticks, not a metric name
		}
		out = append(out, name)
		if i := strings.LastIndexByte(name, '.'); i > 0 {
			base = name[:i]
		}
	}
	return out
}

// --- configuration reference -------------------------------------------

var configHeadRE = regexp.MustCompile("`([a-z][a-z0-9]*)\\.Config`")

// MovedByColumn heads the configuration-reference column that names,
// for each knob, what its flip moves.
const MovedByColumn = "Moved by"

// checkConfigs parses the "## Configuration reference" tables and
// diffs each against the package's exported Config fields. A table
// without a MovedByColumn, or a row whose cell in it is empty, is
// reported too.
func (d *drift) checkConfigs() error {
	doc, err := d.loadDoc(ArchitectureDoc)
	if err != nil {
		return err
	}
	inSection := false
	current := "" // package whose table we are inside
	headerLine := 0
	movedCol := -1 // index of the current table's MovedByColumn
	type docField struct{ line int }
	documented := map[string]map[string]docField{} // pkg -> field -> row
	tableLine := map[string]int{}
	for i, line := range doc.lines {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "## ") {
			inSection = trimmed == "## Configuration reference"
			continue
		}
		if !inSection {
			continue
		}
		if !strings.HasPrefix(trimmed, "|") {
			// A `pkg.Config` mention introduces the next table — but only
			// when no table is pending, so facade aliases mentioned in the
			// same paragraph (`herdkv.Config`) don't steal the binding.
			if m := configHeadRE.FindStringSubmatch(line); m != nil && (current == "" || headerLine > 0) {
				current = m[1]
				headerLine = 0
			}
			continue
		}
		if current == "" {
			continue
		}
		if headerLine == 0 {
			headerLine = i + 1
			tableLine[current] = headerLine
			movedCol = slices.Index(splitRow(trimmed), MovedByColumn)
			if movedCol < 0 {
				d.reportf(doc.linePos(headerLine), "config table for %s.Config has no %q column", current, MovedByColumn)
			}
			continue
		}
		if strings.HasPrefix(strings.ReplaceAll(trimmed, " ", ""), "|---") {
			continue
		}
		cells := splitRow(trimmed)
		if len(cells) == 0 {
			continue
		}
		if movedCol >= 0 && (movedCol >= len(cells) || cells[movedCol] == "") {
			d.reportf(doc.linePos(i+1), "%s.Config row %s has an empty %q cell: name the experiment whose metric its flip moves, or why it is test-only",
				current, cells[0], MovedByColumn)
		}
		for _, m := range backtickRE.FindAllStringSubmatch(cells[0], -1) {
			name := strings.TrimSpace(m[1])
			if !isExportedIdent(name) {
				continue
			}
			if documented[current] == nil {
				documented[current] = map[string]docField{}
			}
			documented[current][name] = docField{line: i + 1}
		}
	}

	for pkg, fields := range documented {
		actual, ok := d.configPkgs[pkg]
		if !ok {
			d.reportf(doc.linePos(tableLine[pkg]), "config table for %s.Config but no such package has a Config struct", pkg)
			continue
		}
		for name, df := range fields {
			if _, ok := actual[name]; !ok {
				d.reportf(doc.linePos(df.line), "%s.Config has no field %s (documented here)", pkg, name)
			}
		}
		for name, fl := range actual {
			if _, ok := fields[name]; !ok {
				if !d.pass.AllowIn(fl.file, fl.pos) {
					d.reportf(fl.pos, "%s.Config.%s is not documented in the %s configuration reference",
						pkg, name, ArchitectureDoc)
				}
			}
		}
	}
	if len(documented) == 0 {
		d.reportf(doc.linePos(1), "no config tables found under %q", "## Configuration reference")
	}
	return nil
}

func isExportedIdent(s string) bool {
	if s == "" || s[0] < 'A' || s[0] > 'Z' {
		return false
	}
	for _, r := range s {
		if !(r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9') {
			return false
		}
	}
	return true
}

// splitRow splits a markdown table row into trimmed cells.
func splitRow(row string) []string {
	row = strings.Trim(row, "|")
	parts := strings.Split(row, "|")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}
