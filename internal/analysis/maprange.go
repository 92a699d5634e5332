package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapRange flags `range` loops over maps whose iteration order can leak
// into observable output: slice appends that are never sorted afterwards,
// channel sends, printing/formatting calls, and order-dependent
// accumulation (floating-point or string, where the reduction is not
// associative-commutative in the bits). Go randomizes map iteration order
// per run, so any of these makes sweep and experiment results
// nondeterministic — the property core.RunSweep's in-order result contract
// exists to protect.
//
// The canonical fix is to sort: collect the keys, sort them, and iterate
// the sorted slice. A key-collection loop (append of the range key into a
// slice that a later sort.X/slices.X call receives) is recognized and not
// flagged.
//
// The check covers the loop body only: a call to a helper that prints or
// sends is not followed.
var MapRange = &Analyzer{
	Name: "maprange",
	Doc:  "flags map iteration whose order can reach output, returns, or sends",
	Run:  runMapRange,
}

func runMapRange(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		v := &mapRangeVisitor{pass: pass, file: f}
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if t := pass.Pkg.Info.Types[rng.X].Type; t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					v.checkRange(rng)
				}
			}
			return true
		})
	}
}

type mapRangeVisitor struct {
	pass *Pass
	file *ast.File
}

func (v *mapRangeVisitor) checkRange(rng *ast.RangeStmt) {
	info := v.pass.Pkg.Info
	keyObj := v.rangeKeyObj(rng)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			v.pass.Reportf(n.Arrow, "map iteration order reaches a channel send; iterate sorted keys")
		case *ast.CallExpr:
			if name, ok := emitCall(info, n); ok {
				v.pass.Reportf(n.Lparen, "map iteration order reaches %s output; iterate sorted keys", name)
			}
			if isBuiltin(info, n.Fun, "append") {
				if tgt := appendTarget(info, n); tgt == nil || !v.sortedAfter(rng, tgt) {
					v.pass.Reportf(n.Lparen, "append under map iteration builds an order-dependent slice; sort it afterwards or iterate sorted keys")
				}
			}
		case *ast.AssignStmt:
			v.checkAccumulation(n, keyObj)
		}
		return true
	})
}

// rangeKeyObj returns the object of the range key variable, if named.
func (v *mapRangeVisitor) rangeKeyObj(rng *ast.RangeStmt) types.Object {
	id, ok := rng.Key.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := v.pass.Pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return v.pass.Pkg.Info.Uses[id]
}

// checkAccumulation flags order-dependent compound assignments: += and its
// friends on floating-point or string lvalues. Per-key updates — an index
// expression keyed by the range variable, like hist[k] += v — are
// order-independent and stay legal, as do integer/boolean reductions.
func (v *mapRangeVisitor) checkAccumulation(as *ast.AssignStmt, keyObj types.Object) {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	default:
		return
	}
	info := v.pass.Pkg.Info
	lhs := as.Lhs[0]
	lt := info.Types[lhs].Type
	if lt == nil {
		return
	}
	b, ok := lt.Underlying().(*types.Basic)
	if !ok || b.Info()&(types.IsFloat|types.IsComplex|types.IsString) == 0 {
		return
	}
	if idx, ok := lhs.(*ast.IndexExpr); ok && keyObj != nil && usesObject(info, idx.Index, keyObj) {
		return
	}
	v.pass.Reportf(as.TokPos, "%s accumulation of %s under map iteration is order-dependent; iterate sorted keys", as.Tok, b.Name())
}

// sortedAfter reports whether tgt is passed to a sort.X or slices.X call
// lexically after the range loop in the same file (the collect-then-sort
// idiom). Object identity scopes the match to the right declaration.
func (v *mapRangeVisitor) sortedAfter(rng *ast.RangeStmt, tgt types.Object) bool {
	info := v.pass.Pkg.Info
	found := false
	ast.Inspect(v.file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Lparen < rng.End() || found {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := info.Uses[pkg].(*types.PkgName)
		if !ok {
			return true
		}
		if p := pn.Imported().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if usesObject(info, arg, tgt) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// appendTarget resolves the variable that receives the grown slice: the
// destination of `x = append(x, ...)` or, failing that, the object behind
// append's first argument.
func appendTarget(info *types.Info, call *ast.CallExpr) types.Object {
	if len(call.Args) == 0 {
		return nil
	}
	if id, ok := call.Args[0].(*ast.Ident); ok {
		return info.Uses[id]
	}
	return nil
}

// emitCall reports whether the call writes formatted output: the fmt print
// family, fmt.Errorf (error text should be deterministic), the log
// package, or the builtin print/println.
func emitCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	if isBuiltin(info, call.Fun, "print") || isBuiltin(info, call.Fun, "println") {
		return "builtin print", true
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := info.Uses[pkg].(*types.PkgName)
	if !ok {
		return "", false
	}
	switch pn.Imported().Path() {
	case "fmt":
		// Only the output-writing family and Errorf: Sprint/Sprintf results
		// are values whose order-sensitivity the accumulation and append
		// checks already cover.
		switch sel.Sel.Name {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln", "Errorf":
			return "fmt." + sel.Sel.Name, true
		}
	case "log":
		return "log." + sel.Sel.Name, true
	}
	return "", false
}

// isBuiltin reports whether fun denotes the named Go builtin.
func isBuiltin(info *types.Info, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// usesObject reports whether the expression mentions obj.
func usesObject(info *types.Info, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
