// Package hotalloc checks that functions annotated `//herd:hotpath`
// are allocation-free. The paper's throughput numbers assume the
// request pipeline does no per-op heap work (§7 measures Mops against
// a fixed CPU budget; RFP shows server CPU efficiency, not verbs,
// decides the ceiling), and ROADMAP item 3 asks for a zero-allocation
// hot path that herdlint can enforce rather than hope for.
//
// Inside an annotated function the analyzer flags, conservatively:
//
//   - make / new and map or slice composite literals, and &T{...}
//   - closure literals (func literals may escape to the heap)
//   - []byte <-> string conversions (each copies)
//   - string concatenation with + / +=
//   - any call into package fmt
//   - interface boxing: converting, assigning, passing, or returning a
//     concrete value where an interface is expected (pointer-shaped
//     values — pointers, maps, chans, funcs — ride in the interface
//     word and are not flagged)
//   - calls into in-tree functions that are not themselves annotated
//     `//herd:hotpath`
//
// Infrastructure packages (sim, wire, verbs, nic, pcie, hostmem,
// cluster, telemetry, kv, fault, stats) are exempt call targets: they
// model hardware or are nil-safe observability. They are not exempt
// from annotation: the simulator substrate's own per-event path (the
// sim event queue and Server, the pcie and wire stage records, the
// verbs WRITE/SEND record) is annotated and gated like any model
// package. Dynamic calls (interface methods, func values) are not
// resolved; implementations carry their own annotations.
//
// A companion testing.AllocsPerRun gate (hotpath_alloc_test.go in each
// annotated package) measures the same functions at 0 allocs/op, so
// the static and dynamic views of "allocation-free" are checked
// against each other; AnnotatedFuncs is the shared enumerator.
package hotalloc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"

	"herdkv/internal/lint/analysis"
)

// Directive marks a function as hot-path: allocation-free, statically
// checked by this analyzer and dynamically gated by AllocsPerRun.
const Directive = "//herd:hotpath"

var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "functions annotated //herd:hotpath must be allocation-free\n\n" +
		"Flags heap work (make/new/literals/closures/conversions/fmt/boxing)\n" +
		"and calls into unannotated in-tree functions on the hot path.",
	Run: run,
}

// exemptPkgs are in-tree packages hot paths may call freely: they
// model hardware (the real counterpart is a NIC or DMA engine, not Go
// code), or are nil-safe observability that compiles away when unset.
var exemptPkgs = map[string]bool{
	"sim":       true,
	"wire":      true,
	"verbs":     true,
	"nic":       true,
	"pcie":      true,
	"hostmem":   true,
	"cluster":   true,
	"telemetry": true,
	"kv":        true,
	"fault":     true,
	"stats":     true,
}

// DirLookup resolves an in-tree import path to its source directory so
// the analyzer can read `//herd:hotpath` annotations in packages it
// only sees as export data. The default walks up from fromDir to the
// enclosing go.mod; fixture tests override it to point into their
// GOPATH-style testdata tree.
var DirLookup = func(pkgPath, fromDir string) string {
	root, module := findModule(fromDir)
	if root == "" {
		return ""
	}
	if pkgPath == module {
		return root
	}
	if strings.HasPrefix(pkgPath, module+"/") {
		return filepath.Join(root, filepath.FromSlash(pkgPath[len(module)+1:]))
	}
	return ""
}

func findModule(dir string) (root, module string) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest)
				}
			}
			return "", ""
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", ""
		}
		d = parent
	}
}

// annotCache memoizes per-directory annotation scans; the driver runs
// single-threaded over packages, so no locking.
var annotCache = map[string]map[string]bool{}

// AnnotatedFuncs parses the non-test .go files in dir (comments only,
// no type checking) and returns the set of `//herd:hotpath` functions,
// methods keyed as "Recv.Name". The AllocsPerRun gates use it to prove
// every annotation in their package is exercised at 0 allocs/op.
func AnnotatedFuncs(dir string) (map[string]bool, error) {
	if m, ok := annotCache[dir]; ok {
		return m, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	set := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && hasDirective(fd.Doc) {
				set[declKey(fd)] = true
			}
		}
	}
	annotCache[dir] = set
	return set, nil
}

func hasDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == Directive || strings.HasPrefix(c.Text, Directive+" ") {
			return true
		}
	}
	return false
}

func declKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

func run(pass *analysis.Pass) (interface{}, error) {
	c := &checker{pass: pass, local: map[string]bool{}}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && hasDirective(fd.Doc) {
				c.local[declKey(fd)] = true
			}
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasDirective(fd.Doc) {
				continue
			}
			c.checkBody(fd)
		}
	}
	return nil, nil
}

type checker struct {
	pass  *analysis.Pass
	local map[string]bool // annotated "Recv.Name" keys in this package
}

func (c *checker) checkBody(fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.pass.Reportf(n.Pos(), "closure literal on hot path %s (may escape to the heap)", fd.Name.Name)
			return false // the closure body runs later; not this hot path
		case *ast.CompositeLit:
			c.checkCompositeLit(n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					c.pass.Reportf(n.Pos(), "&composite literal allocates on hot path %s", fd.Name.Name)
				}
			}
		case *ast.CallExpr:
			c.checkCall(n, fd)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && c.isNonConstString(n) {
				c.pass.Reportf(n.Pos(), "string concatenation allocates on hot path %s", fd.Name.Name)
			}
		case *ast.AssignStmt:
			c.checkAssign(n)
		case *ast.ValueSpec:
			c.checkValueSpec(n)
		case *ast.ReturnStmt:
			c.checkReturn(n, fd)
		}
		return true
	})
}

func (c *checker) typeOf(e ast.Expr) types.Type {
	if tv, ok := c.pass.TypesInfo.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func (c *checker) isNonConstString(e ast.Expr) bool {
	tv, ok := c.pass.TypesInfo.Types[e]
	if !ok || tv.Value != nil { // constant-folded at compile time
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func (c *checker) checkCompositeLit(n *ast.CompositeLit) {
	t := c.typeOf(n)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Map:
		c.pass.Reportf(n.Pos(), "map literal allocates on the hot path")
	case *types.Slice:
		c.pass.Reportf(n.Pos(), "slice literal allocates on the hot path")
	}
}

// checkCall handles make/new builtins, []byte<->string conversions,
// fmt.* calls, boxing at call arguments, and the in-tree callee rule.
func (c *checker) checkCall(call *ast.CallExpr, fd *ast.FuncDecl) {
	// Conversion: T(x) where Fun names a type.
	if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		c.checkConversion(call, tv.Type)
		return
	}

	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := c.pass.TypesInfo.Uses[fun].(*types.Builtin); ok {
			switch obj.Name() {
			case "make":
				c.pass.Reportf(call.Pos(), "make allocates on the hot path")
			case "new":
				c.pass.Reportf(call.Pos(), "new allocates on the hot path")
			}
			return
		}
	}

	callee := typeutilCallee(c.pass.TypesInfo, call)
	if callee != nil && callee.Pkg() != nil {
		path := callee.Pkg().Path()
		if path == "fmt" {
			c.reportFmt(call, callee, fd)
			return
		}
		c.checkInTreeCallee(call, callee, path, fd)
	}

	// Boxing at call arguments: concrete value into interface param.
	c.checkCallArgs(call)
}

func (c *checker) checkConversion(call *ast.CallExpr, to types.Type) {
	if len(call.Args) != 1 {
		return
	}
	from := c.typeOf(call.Args[0])
	if from == nil {
		return
	}
	if isString(to) && isByteOrRuneSlice(from) {
		c.pass.Reportf(call.Pos(), "[]byte-to-string conversion copies on the hot path")
		return
	}
	if isByteOrRuneSlice(to) && isString(from) {
		c.pass.Reportf(call.Pos(), "string-to-[]byte conversion copies on the hot path")
		return
	}
	// Conversion to interface type boxes the operand.
	if types.IsInterface(to) && !types.IsInterface(from) && !isUntypedNil(from) && !pointerShaped(from) {
		c.pass.Reportf(call.Pos(), "conversion to interface boxes %s on the hot path", from)
	}
}

// reportFmt flags any fmt call; a zero-verb fmt.Sprintf of a literal
// gets a suggested fix replacing the call with the literal itself.
func (c *checker) reportFmt(call *ast.CallExpr, callee *types.Func, fd *ast.FuncDecl) {
	if callee.Name() == "Sprintf" && len(call.Args) == 1 {
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING && !strings.Contains(lit.Value, "%") {
			c.pass.ReportFixf(call.Pos(), call.End(), []byte(lit.Value),
				"replace fmt.Sprintf of a plain literal with the literal",
				"fmt.Sprintf of a constant string allocates on hot path %s", fd.Name.Name)
			return
		}
	}
	c.pass.Reportf(call.Pos(), "fmt.%s allocates on hot path %s", callee.Name(), fd.Name.Name)
}

// checkInTreeCallee enforces that hot paths only call hot-path or
// infrastructure code inside the module.
func (c *checker) checkInTreeCallee(call *ast.CallExpr, callee *types.Func, path string, fd *ast.FuncDecl) {
	if firstSegment(path) != firstSegment(c.pass.Pkg.Path()) {
		return // outside the tree (stdlib etc.); only fmt is policed
	}
	if exemptPkgs[lastSegment(path)] {
		return
	}
	if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
		if types.IsInterface(sig.Recv().Type()) {
			return // dynamic dispatch: implementations carry their own annotations
		}
	}
	key := funcKey(callee)
	if path == c.pass.Pkg.Path() {
		if !c.local[key] {
			c.pass.Reportf(call.Pos(), "hot path %s calls non-hotpath function %s", fd.Name.Name, key)
		}
		return
	}
	dir := DirLookup(path, filepath.Dir(c.pass.Fset.Position(call.Pos()).Filename))
	annotated := map[string]bool{}
	if dir != "" {
		if m, err := AnnotatedFuncs(dir); err == nil {
			annotated = m
		}
	}
	if !annotated[key] {
		c.pass.Reportf(call.Pos(), "hot path %s calls non-hotpath function %s.%s", fd.Name.Name, lastSegment(path), key)
	}
}

func (c *checker) checkCallArgs(call *ast.CallExpr) {
	sigType := c.typeOf(call.Fun)
	if sigType == nil {
		return
	}
	sig, ok := sigType.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= params.Len()-1 {
			if call.Ellipsis != token.NoPos {
				continue // f(xs...) passes the slice through, no boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		} else if i < params.Len() {
			pt = params.At(i).Type()
		}
		c.checkBox(arg, pt, "argument")
	}
}

func (c *checker) checkAssign(n *ast.AssignStmt) {
	if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && c.isNonConstString(n.Lhs[0]) {
		c.pass.Reportf(n.Pos(), "string += allocates on the hot path")
		return
	}
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i := range n.Lhs {
		c.checkBox(n.Rhs[i], c.typeOf(n.Lhs[i]), "assignment")
	}
}

func (c *checker) checkValueSpec(n *ast.ValueSpec) {
	if n.Type == nil {
		return
	}
	declared := c.typeOf(n.Type)
	for _, v := range n.Values {
		c.checkBox(v, declared, "assignment")
	}
}

func (c *checker) checkReturn(n *ast.ReturnStmt, fd *ast.FuncDecl) {
	if fd.Type.Results == nil {
		return
	}
	var resultTypes []types.Type
	for _, field := range fd.Type.Results.List {
		t := c.typeOf(field.Type)
		k := len(field.Names)
		if k == 0 {
			k = 1
		}
		for j := 0; j < k; j++ {
			resultTypes = append(resultTypes, t)
		}
	}
	if len(n.Results) != len(resultTypes) {
		return // bare return or single multi-value call
	}
	for i, r := range n.Results {
		c.checkBox(r, resultTypes[i], "return")
	}
}

// checkBox reports when expr's concrete value is implicitly converted
// to an interface type (heap-boxing the value).
func (c *checker) checkBox(expr ast.Expr, to types.Type, what string) {
	if to == nil || !types.IsInterface(to) {
		return
	}
	tv, ok := c.pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil {
		return
	}
	from := tv.Type
	if types.IsInterface(from) || isUntypedNil(from) || pointerShaped(from) {
		return
	}
	if _, isLit := expr.(*ast.FuncLit); isLit {
		return // already reported as a closure
	}
	c.pass.Reportf(expr.Pos(), "%s boxes %s into %s on the hot path", what, from, to)
}

// pointerShaped reports whether an interface stores a t value directly
// in its data word — a pointer, map, chan, func or unsafe.Pointer, or a
// struct or array wrapping exactly one such value — so converting t to
// an interface does not allocate. This is how a pooled stage record
// (*T) rides in a sim.Handler for free.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	case *types.Struct:
		return u.NumFields() == 1 && pointerShaped(u.Field(0).Type())
	case *types.Array:
		return u.Len() == 1 && pointerShaped(u.Elem())
	}
	return false
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

func firstSegment(path string) string {
	if i := strings.IndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return path
}

func lastSegment(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// funcKey is the registry key for a resolved callee: "Name" for
// functions, "Recv.Name" for methods.
func funcKey(f *types.Func) string {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return f.Name()
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name() + "." + f.Name()
	}
	return f.Name()
}

// typeutilCallee resolves the static callee of call, or nil for
// dynamic calls (func values, results of other calls).
func typeutilCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Package-qualified call: pkg.Fn.
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}
