// Package verbsmatrix implements the herdlint analyzer that enforces
// the paper's Table 1 (verbs supported per transport) and two posting
// disciplines at the call site, where the runtime check in
// internal/verbs would only fire once a test happens to execute the
// path:
//
//   - READ or WRITE posted on a UD queue pair, or READ on UC, when both
//     the transport and the opcode are compile-time constants;
//   - Inline posts whose payload is provably larger than the device
//     inline limit (256 B on ConnectX-3, the paper's hardware);
//   - loops that post only unsignaled sends with no signaled post or CQ
//     handler in the loop — the send queue overflows once the loop outruns
//     the device (Section 3.2's selective-signaling discipline).
package verbsmatrix

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"herdkv/internal/lint/analysis"
)

// Doc is the analyzer's help text.
const Doc = `enforce the Table 1 transport/verb matrix and posting discipline

Where a queue pair's transport and a work request's opcode are both
constants at the call site, posting a verb the transport does not
support (READ/WRITE on UD, READ on UC) is reported at compile time
instead of as a runtime ErrVerbNotSupported. Also flags Inline posts
with payloads provably above the inline limit, and loops of unsignaled
posts that never signal or consume completions. Suppress with
//lint:allow verbsmatrix — <reason>.`

// MaxInline is the device inline limit the payload check assumes: the
// ConnectX-3 value from internal/nic.DefaultParams. A cluster with a
// different device can raise it via cmd/herdlint -maxinline.
var MaxInline = 256

// Analyzer is the verbsmatrix check.
var Analyzer = &analysis.Analyzer{
	Name: "verbsmatrix",
	Doc:  Doc,
	Run:  run,
}

// Transport and verb encodings, coupled to the constant blocks in
// internal/wire (RC, UC, UD, DC) and internal/verbs (WRITE..RECV).
// Both files pin the iota order with golden tests.
var (
	transportName = [...]string{"RC", "UC", "UD", "DC"}
	verbName      = [...]string{"WRITE", "READ", "SEND", "RECV"}
)

const (
	tUC = 1
	tUD = 2

	vWRITE = 0
	vREAD  = 1
)

// violatesTable1 reports whether verb v is unsupported on transport t
// (Table 1 of the paper; mirrors verbs.Supports).
func violatesTable1(t, v int64) bool {
	switch t {
	case tUD:
		return v == vWRITE || v == vREAD
	case tUC:
		return v == vREAD
	}
	return false
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd.Body)
		}
	}
	return nil, nil
}

// checkFunc analyzes one function body (closures included: objects key
// the tracking maps, so shadowing resolves correctly).
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	transports := map[types.Object]int64{} // QP var -> constant transport
	wrLits := map[types.Object]*ast.CompositeLit{}
	poisoned := map[types.Object]bool{}

	// Pass 1: harvest single-assignment facts.
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				var rhs ast.Expr
				if len(st.Rhs) == len(st.Lhs) {
					rhs = st.Rhs[i]
				}
				recordAssign(pass, lhs, rhs, transports, wrLits, poisoned)
			}
		case *ast.GenDecl:
			for _, spec := range st.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var rhs ast.Expr
					if i < len(vs.Values) {
						rhs = vs.Values[i]
					}
					recordAssign(pass, name, rhs, transports, wrLits, poisoned)
				}
			}
		case *ast.UnaryExpr:
			// &wr escapes: later mutations are invisible to us.
			if st.Op == token.AND {
				if id, ok := st.X.(*ast.Ident); ok {
					poisoned[pass.TypesInfo.Uses[id]] = true
				}
			}
		}
		return true
	})

	// Pass 2: check postings.
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, recv := verbsMethod(pass, call)
		switch name {
		case "PostSend":
			if len(call.Args) != 1 {
				return true
			}
			t, tKnown := transportOf(pass, recv, transports, poisoned)
			if lit := resolveWR(pass, call.Args[0], wrLits, poisoned); lit != nil {
				checkWR(pass, lit, t, tKnown)
			}
		case "PostSendBatch":
			if len(call.Args) != 1 {
				return true
			}
			t, tKnown := transportOf(pass, recv, transports, poisoned)
			if sl, ok := call.Args[0].(*ast.CompositeLit); ok {
				for _, el := range sl.Elts {
					if lit, ok := el.(*ast.CompositeLit); ok {
						checkWR(pass, lit, t, tKnown)
					}
				}
			}
		}
		return true
	})

	checkUnsignaledLoops(pass, body, wrLits, poisoned)
}

// recordAssign updates the fact maps for one lhs := rhs binding.
func recordAssign(pass *analysis.Pass, lhs, rhs ast.Expr, transports map[types.Object]int64, wrLits map[types.Object]*ast.CompositeLit, poisoned map[types.Object]bool) {
	// Mutating a field of a tracked work request invalidates its
	// literal snapshot.
	if sel, ok := lhs.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Uses[id]; obj != nil {
				poisoned[obj] = true
			}
		}
		return
	}
	id, ok := lhs.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = pass.TypesInfo.Uses[id]
	}
	if obj == nil {
		return
	}
	_, seenQP := transports[obj]
	_, seenWR := wrLits[obj]
	if seenQP || seenWR || poisoned[obj] {
		// Reassignment: facts no longer single-sourced.
		poisoned[obj] = true
		return
	}
	if rhs == nil {
		return
	}
	if t, ok := createQPTransport(pass, rhs); ok {
		transports[obj] = t
		return
	}
	if lit, ok := rhs.(*ast.CompositeLit); ok && isVerbsType(pass.TypesInfo.Types[lit].Type, "SendWR") {
		wrLits[obj] = lit
	}
}

// createQPTransport matches `x.CreateQP(<const transport>)`.
func createQPTransport(pass *analysis.Pass, e ast.Expr) (int64, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return 0, false
	}
	name, _ := verbsMethod(pass, call)
	if name != "CreateQP" || len(call.Args) != 1 {
		return 0, false
	}
	return constIntValue(pass, call.Args[0])
}

// verbsMethod returns the method name and receiver expression when call
// invokes a method defined in a package named "verbs".
func verbsMethod(pass *analysis.Pass, call *ast.CallExpr) (string, ast.Expr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Name() != "verbs" {
		return "", nil
	}
	return fn.Name(), sel.X
}

// transportOf resolves the receiver's transport when it is a tracked,
// un-poisoned local.
func transportOf(pass *analysis.Pass, recv ast.Expr, transports map[types.Object]int64, poisoned map[types.Object]bool) (int64, bool) {
	id, ok := recv.(*ast.Ident)
	if !ok {
		return 0, false
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil || poisoned[obj] {
		return 0, false
	}
	t, ok := transports[obj]
	return t, ok
}

// resolveWR returns the SendWR composite literal for a PostSend
// argument: either written in place or a single-assignment local.
func resolveWR(pass *analysis.Pass, arg ast.Expr, wrLits map[types.Object]*ast.CompositeLit, poisoned map[types.Object]bool) *ast.CompositeLit {
	switch a := arg.(type) {
	case *ast.CompositeLit:
		return a
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[a]
		if obj == nil || poisoned[obj] {
			return nil
		}
		return wrLits[obj]
	}
	return nil
}

// checkWR applies the Table 1 and inline checks to one work request
// literal posted on a QP whose transport is t (when tKnown).
func checkWR(pass *analysis.Pass, lit *ast.CompositeLit, t int64, tKnown bool) {
	fieldsMap := litFields(lit)
	// An absent Verb field is the zero value: WRITE.
	verb, verbKnown := int64(vWRITE), true
	var verbPos token.Pos = lit.Pos()
	if e, ok := fieldsMap["Verb"]; ok {
		verb, verbKnown = constIntValue(pass, e)
		verbPos = e.Pos()
	}
	if tKnown && verbKnown && violatesTable1(t, verb) {
		pass.Reportf(verbPos,
			"%s posted on a %s queue pair: Table 1 — %s supports %s; this returns ErrVerbNotSupported at runtime",
			name(verbName[:], verb), name(transportName[:], t),
			name(transportName[:], t), supported(t))
	}
	if inl, ok := fieldsMap["Inline"]; ok {
		if v, known := constBoolValue(pass, inl); known && v {
			if n, ok := provableLen(pass, fieldsMap["Data"]); ok && n > int64(MaxInline) {
				pass.Reportf(inl.Pos(),
					"Inline post with a %d-byte payload exceeds the device inline limit (%d B); this returns ErrInlineTooLarge at runtime", n, MaxInline)
			}
		}
	}
}

func supported(t int64) string {
	switch t {
	case tUD:
		return "only SEND/RECV"
	case tUC:
		return "SEND/RECV/WRITE but not READ"
	}
	return "all verbs"
}

func name(table []string, v int64) string {
	if v >= 0 && int(v) < len(table) {
		return table[v]
	}
	return "?"
}

// litFields maps field names to value expressions for a keyed literal.
func litFields(lit *ast.CompositeLit) map[string]ast.Expr {
	m := make(map[string]ast.Expr, len(lit.Elts))
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if k, ok := kv.Key.(*ast.Ident); ok {
			m[k.Name] = kv.Value
		}
	}
	return m
}

// provableLen returns the byte length of a payload expression when it
// is statically evident: make([]byte, N) with constant N, a []byte
// literal without indexed elements, or []byte("literal").
func provableLen(pass *analysis.Pass, e ast.Expr) (int64, bool) {
	switch x := e.(type) {
	case nil:
		return 0, false
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "make" && len(x.Args) >= 2 {
			if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "make" {
				return constIntValue(pass, x.Args[1])
			}
		}
		// []byte("...") conversion.
		if len(x.Args) == 1 {
			if tv, ok := pass.TypesInfo.Types[x.Fun]; ok && tv.IsType() {
				if arg, ok := pass.TypesInfo.Types[x.Args[0]]; ok && arg.Value != nil && arg.Value.Kind() == constant.String {
					return int64(len(constant.StringVal(arg.Value))), true
				}
			}
		}
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if _, keyed := el.(*ast.KeyValueExpr); keyed {
				return 0, false
			}
		}
		if t, ok := pass.TypesInfo.Types[x].Type.Underlying().(*types.Slice); ok {
			if b, ok := t.Elem().Underlying().(*types.Basic); ok && b.Kind() == types.Byte {
				return int64(len(x.Elts)), true
			}
		}
	}
	return 0, false
}

// checkUnsignaledLoops flags loops whose only resolvable posts are
// unsignaled and which neither signal nor consume completions: each
// iteration takes a send-queue slot that nothing ever frees (Section
// 3.2).
func checkUnsignaledLoops(pass *analysis.Pass, body *ast.BlockStmt, wrLits map[types.Object]*ast.CompositeLit, poisoned map[types.Object]bool) {
	reported := map[token.Pos]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		var loopBody *ast.BlockStmt
		switch l := n.(type) {
		case *ast.ForStmt:
			loopBody = l.Body
		case *ast.RangeStmt:
			loopBody = l.Body
		default:
			return true
		}
		var unsignaled []token.Pos
		safe := false
		ast.Inspect(loopBody, func(m ast.Node) bool {
			// A closure defined in the loop does not run once per
			// iteration; its posts are its own function's business.
			if _, isLit := m.(*ast.FuncLit); isLit {
				return false
			}
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			mname, _ := verbsMethod(pass, call)
			switch mname {
			case "SetHandler":
				// Completions are consumed (or will be); the loop can
				// bound its outstanding posts.
				safe = true
			case "PostSend":
				if len(call.Args) != 1 {
					return true
				}
				lit := resolveWR(pass, call.Args[0], wrLits, poisoned)
				if lit == nil {
					safe = true // can't see the WR; assume discipline
					return true
				}
				sig, known := false, true
				if e, ok := litFields(lit)["Signaled"]; ok {
					sig, known = constBoolValue(pass, e)
				}
				if !known || sig {
					safe = true
				} else {
					unsignaled = append(unsignaled, call.Pos())
				}
			case "PostSendBatch":
				// The batch path applies its own signaling policy.
				safe = true
			}
			return true
		})
		if !safe && len(unsignaled) > 0 && !reported[unsignaled[0]] {
			reported[unsignaled[0]] = true
			pass.Reportf(unsignaled[0],
				"loop posts only unsignaled sends and never signals or consumes a CQ; the send queue fills and posting stalls (selective signaling needs a periodic signaled WR, §3.2)")
		}
		return true
	})
}

// constIntValue evaluates e as a compile-time integer constant.
func constIntValue(pass *analysis.Pass, e ast.Expr) (int64, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}

// constBoolValue evaluates e as a compile-time boolean constant.
func constBoolValue(pass *analysis.Pass, e ast.Expr) (val, known bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Bool {
		return false, false
	}
	return constant.BoolVal(tv.Value), true
}

// isVerbsType reports whether t is the named type name from a package
// named "verbs".
func isVerbsType(t types.Type, typeName string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && obj.Pkg().Name() == "verbs"
}
