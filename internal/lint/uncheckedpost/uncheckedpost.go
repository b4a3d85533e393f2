// Package uncheckedpost implements the herdlint analyzer that keeps
// verbs error paths honest. PostSend/PostRecv return synchronous
// validation errors (Table 1 violations, inline overflow, bounds,
// errored QPs) — discarding one turns a protocol bug into a silent
// no-op that only surfaces as a hung experiment. Likewise, since PR 2
// queue pairs flush in error when their owner crashes: a completion's
// payload is only meaningful after checking Flushed (and Dropped for
// responder-side SENDs), so reading Completion.Data without ever
// looking at the status fields mis-parses garbage during fault runs.
package uncheckedpost

import (
	"go/ast"
	"go/token"
	"go/types"

	"herdkv/internal/lint/analysis"
)

// Doc is the analyzer's help text.
const Doc = `flag discarded verbs errors and unchecked completion status

The error returned by PostSend/PostRecv/PostSendBatch/PostAtomic and
verbs.Connect must be consumed (not dropped as a statement or assigned
to _), and a function that reads Completion.Data must somewhere consult
Completion.Flushed or .Dropped. Suppress with
//lint:allow uncheckedpost — <reason>.`

// Analyzer is the uncheckedpost check.
var Analyzer = &analysis.Analyzer{
	Name: "uncheckedpost",
	Doc:  Doc,
	Run:  run,
}

// checkedFuncs lists the verbs-package functions and methods whose
// error results the analyzer tracks.
var checkedFuncs = map[string]bool{
	"PostSend": true, "PostRecv": true, "PostSendBatch": true,
	"PostAtomic": true, "Connect": true, "RegisterMR": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if pass.Pkg.Name() == "verbs" {
		// The implementing package manipulates its own internals.
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if name := erroringVerbsCall(pass, st.X); name != "" {
					pass.Reportf(st.Pos(),
						"error from verbs %s discarded; a rejected post means the layer above is broken — handle it", name)
				}
			case *ast.AssignStmt:
				if len(st.Rhs) == 1 && allBlank(st.Lhs) {
					if name := erroringVerbsCall(pass, st.Rhs[0]); name != "" {
						pass.Reportf(st.Pos(),
							"error from verbs %s assigned to _; handle it (or carry //lint:allow uncheckedpost with a reason)", name)
					}
				}
			case *ast.GoStmt:
				if name := erroringVerbsCall(pass, st.Call); name != "" {
					pass.Reportf(st.Pos(), "error from verbs %s discarded by go statement", name)
				}
			case *ast.DeferStmt:
				if name := erroringVerbsCall(pass, st.Call); name != "" {
					pass.Reportf(st.Pos(), "error from verbs %s discarded by defer statement", name)
				}
			}
			return true
		})
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkCompletionReads(pass, fd)
			}
		}
	}
	return nil, nil
}

// erroringVerbsCall reports the name of the verbs function called by e
// when that call returns an error that e's context discards.
func erroringVerbsCall(pass *analysis.Pass, e ast.Expr) string {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return ""
	}
	var fn *types.Func
	switch fe := call.Fun.(type) {
	case *ast.SelectorExpr:
		fn, _ = pass.TypesInfo.Uses[fe.Sel].(*types.Func)
	case *ast.Ident:
		fn, _ = pass.TypesInfo.Uses[fe].(*types.Func)
	}
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Name() != "verbs" || !checkedFuncs[fn.Name()] {
		return ""
	}
	// Only flag signatures that actually return an error (RegisterMR
	// today returns *MR; listed so a future error-returning variant is
	// covered automatically).
	sig, ok := fn.Type().(*types.Signature)
	if !ok || !returnsError(sig) {
		return ""
	}
	return fn.Name()
}

func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if named, ok := res.At(i).Type().(*types.Named); ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
			return true
		}
	}
	return false
}

func allBlank(exprs []ast.Expr) bool {
	for _, e := range exprs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return len(exprs) > 0
}

// payloadFields are the Completion fields that are only meaningful on a
// successfully completed (non-flushed) work request.
var payloadFields = map[string]bool{"Data": true, "SrcQPN": true}

// statusFields are the fields whose inspection counts as checking.
var statusFields = map[string]bool{"Flushed": true, "Dropped": true}

// checkCompletionReads walks one top-level function (closures included)
// and reports the first payload read if no status field is consulted
// anywhere in the same declaration.
func checkCompletionReads(pass *analysis.Pass, fd *ast.FuncDecl) {
	var firstRead token.Pos
	var firstField string
	checked := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s, ok := pass.TypesInfo.Selections[sel]
		if !ok || s.Kind() != types.FieldVal || !isCompletion(s.Recv()) {
			return true
		}
		switch {
		case statusFields[sel.Sel.Name]:
			checked = true
		case payloadFields[sel.Sel.Name] && firstRead == token.NoPos:
			firstRead = sel.Pos()
			firstField = sel.Sel.Name
		}
		return true
	})
	if firstRead != token.NoPos && !checked {
		pass.Reportf(firstRead,
			"Completion.%s read without checking Flushed (or Dropped) anywhere in this function; flushed-in-error completions carry no valid payload", firstField)
	}
}

// isCompletion reports whether t is verbs.Completion or a pointer to it.
func isCompletion(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Completion" && obj.Pkg() != nil && obj.Pkg().Name() == "verbs"
}
