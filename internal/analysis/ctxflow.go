package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CtxFlow enforces the context-threading discipline PR 4 established by
// hand: cancellation only works end-to-end if every cancellable call
// reachable from a CLI entry receives the context that entry threaded in.
// For every function (or function literal) that accepts a context.Context
// parameter, the analyzer computes the context variables derived from that
// parameter (for nested literals, also from any context parameter of the
// enclosing functions) and reports:
//
//   - a call argument in a context.Context parameter slot whose value is
//     context.Background() or context.TODO() — a fresh root context
//     smuggled into library code severs the caller's cancellation;
//   - a context argument not derived from the function's own context —
//     e.g. a context built from Background via WithTimeout, or a variable
//     that is assigned an underived context anywhere in the function;
//   - a context parameter that is never used at all while the body calls
//     at least one context-accepting function — accepted but not threaded,
//     so the signature promises a cancellability the body does not deliver.
//
// Derivation follows assignments and calls: any call that returns a
// context and receives a derived argument (context.WithCancel/WithTimeout/
// WithValue, or a helper doing the same) produces a derived context. The
// check is not flow-sensitive: a variable counts as derived only if every
// write to it in the function assigns a derived value, so a variable that
// is ever bound to a fresh root is rejected at every use.
// main-package root functions without a ctx parameter (where
// context.Background is the correct root) are naturally out of scope.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "flags context.Context parameters that are not threaded into every context-accepting call",
	Run:  runCtxFlow,
}

func runCtxFlow(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			seeds := ctxParams(info, fn.Type)
			checkCtxFunc(pass, fn.Body, fn.Type, seeds)
		}
	}
}

// checkCtxFunc analyzes one function body whose visible context seeds are
// given, then recurses into nested function literals: a literal sees the
// enclosing contexts (closure capture) plus its own parameters.
func checkCtxFunc(pass *Pass, body *ast.BlockStmt, ftyp *ast.FuncType, seeds []types.Object) {
	info := pass.Pkg.Info
	if len(seeds) > 0 {
		checkCtxCalls(pass, body, derivedCtxs(info, body, seeds))
		checkCtxUnused(pass, body, ftyp)
	}
	// Nested literals: analyzed with the outer seeds still visible.
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		inner := append(ctxParams(info, lit.Type), seeds...)
		checkCtxFunc(pass, lit.Body, lit.Type, inner)
		return false // checkCtxFunc recursed already
	})
}

// ctxWrite is one assignment to a context-typed local: the variable and
// the expression assigned (nil when the write has none, as in a bare var
// declaration or a range clause).
type ctxWrite struct {
	v   *types.Var
	rhs ast.Expr
}

// derivedCtxs returns the context variables of body that hold a context
// derived from the seeds: the greatest set containing only seeds and
// written variables in which every write to a member assigns a value
// ctxDerived accepts under the set itself. Nested function literals are
// separate functions and their writes are not gathered.
func derivedCtxs(info *types.Info, body *ast.BlockStmt, seeds []types.Object) map[types.Object]bool {
	var writes []ctxWrite
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		writes = appendCtxWrites(writes, info, n)
		return true
	})
	set := map[types.Object]bool{}
	for _, s := range seeds {
		set[s] = true
	}
	for _, w := range writes {
		set[w.v] = true
	}
	for changed := true; changed; {
		changed = false
		for _, w := range writes {
			if set[w.v] && !ctxDerived(info, w.rhs, set) {
				delete(set, w.v)
				changed = true
			}
		}
	}
	return set
}

// appendCtxWrites appends the context-typed variable writes performed
// directly by node n: assignments, short and var declarations, and range
// clause variables. A multi-value assignment from one call assigns that
// call to every variable on its left.
func appendCtxWrites(writes []ctxWrite, info *types.Info, n ast.Node) []ctxWrite {
	add := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if v, ok := obj.(*types.Var); ok && isContextType(v.Type()) {
			writes = append(writes, ctxWrite{v, rhs})
		}
	}
	// rhsAt is the value assigned to the i-th of n names.
	rhsAt := func(values []ast.Expr, i, n int) ast.Expr {
		switch len(values) {
		case n:
			return values[i]
		case 1:
			return values[0]
		}
		return nil
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			add(lhs, rhsAt(n.Rhs, i, len(n.Lhs)))
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					add(name, rhsAt(vs.Values, i, len(vs.Names)))
				}
			}
		}
	case *ast.RangeStmt:
		if n.Key != nil {
			add(n.Key, nil)
		}
		if n.Value != nil {
			add(n.Value, nil)
		}
	}
	return writes
}

// checkCtxCalls finds the calls of body with context-typed parameter slots
// and checks each context argument against the derived set. Function
// literals are skipped: checkCtxFunc checks them as functions of their own.
func checkCtxCalls(pass *Pass, body *ast.BlockStmt, set map[types.Object]bool) {
	info := pass.Pkg.Info
	ast.Inspect(body, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		sig, ok := info.Types[call.Fun].Type.(*types.Signature)
		if !ok {
			return true
		}
		params := sig.Params()
		for i, arg := range call.Args {
			if i >= params.Len() && !sig.Variadic() {
				break
			}
			var pt types.Type
			if sig.Variadic() && i >= params.Len()-1 {
				pt = params.At(params.Len() - 1).Type()
				if sl, ok := pt.(*types.Slice); ok && !call.Ellipsis.IsValid() {
					pt = sl.Elem()
				}
			} else {
				pt = params.At(i).Type()
			}
			if !isContextType(pt) {
				continue
			}
			if name, ok := contextRootCall(info, arg); ok {
				pass.Reportf(arg.Pos(), "context.%s passed to %s inside a function that has its own ctx parameter; thread the parameter instead", name, calleeName(call))
				continue
			}
			if !ctxDerived(info, arg, set) {
				pass.Reportf(arg.Pos(), "context passed to %s is not derived from this function's ctx parameter in this function", calleeName(call))
			}
		}
		return true
	})
}

// checkCtxUnused reports a context parameter with zero uses in a body that
// calls at least one context-accepting function: the context could have
// been threaded and was not. A parameter used in any way (threaded,
// ctx.Err() polling, select on ctx.Done()) is accepted; so is an unused
// parameter in a body with nothing to thread it into (interface
// conformance).
func checkCtxUnused(pass *Pass, body *ast.BlockStmt, ftyp *ast.FuncType) {
	info := pass.Pkg.Info
	own := ctxParams(info, ftyp) // only this function's own parameters
	if len(own) == 0 {
		return
	}
	used := map[types.Object]bool{}
	hasCtxCallee := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := info.Uses[n]; obj != nil {
				used[obj] = true
			}
		case *ast.CallExpr:
			if sig, ok := info.Types[n.Fun].Type.(*types.Signature); ok && acceptsContext(sig) {
				hasCtxCallee = true
			}
		}
		return true
	})
	if !hasCtxCallee {
		return
	}
	for _, p := range own {
		if !used[p] {
			pass.Reportf(p.Pos(), "ctx parameter %s is never used, but the body calls context-accepting functions; thread it", p.Name())
		}
	}
}

// ctxParams returns the objects of the context.Context-typed parameters of
// a function type (blank parameters excluded).
func ctxParams(info *types.Info, ftyp *ast.FuncType) []types.Object {
	var out []types.Object
	if ftyp == nil || ftyp.Params == nil {
		return nil
	}
	for _, field := range ftyp.Params.List {
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			if obj := info.Defs[name]; obj != nil && isContextType(obj.Type()) {
				out = append(out, obj)
			}
		}
	}
	return out
}

// ctxDerived reports whether e evaluates to a context derived from the
// set: an identifier in the set, a parenthesized/asserted/converted
// derived value, or a call returning a context that receives a derived
// context argument (context.With* and user helpers alike).
func ctxDerived(info *types.Info, e ast.Expr, set map[types.Object]bool) bool {
	switch e := e.(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		return obj != nil && set[obj]
	case *ast.ParenExpr:
		return ctxDerived(info, e.X, set)
	case *ast.TypeAssertExpr:
		return ctxDerived(info, e.X, set)
	case *ast.CallExpr:
		if info.Types[e.Fun].IsType() { // conversion
			if len(e.Args) == 1 {
				return ctxDerived(info, e.Args[0], set)
			}
			return false
		}
		sig, ok := info.Types[e.Fun].Type.(*types.Signature)
		if !ok || !returnsContext(sig) {
			return false
		}
		for _, arg := range e.Args {
			if isContextType(info.Types[arg].Type) && ctxDerived(info, arg, set) {
				return true
			}
		}
		return false
	}
	return false
}

// contextRootCall recognizes context.Background() / context.TODO().
func contextRootCall(info *types.Info, e ast.Expr) (string, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", false
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
	if !ok || pn.Imported().Path() != "context" {
		return "", false
	}
	if sel.Sel.Name == "Background" || sel.Sel.Name == "TODO" {
		return sel.Sel.Name, true
	}
	return "", false
}

// calleeName renders a call's function for diagnostics.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			return x.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "call"
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// acceptsContext reports whether a signature has a context.Context
// parameter slot.
func acceptsContext(sig *types.Signature) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// returnsContext reports whether a signature has a context.Context result.
func returnsContext(sig *types.Signature) bool {
	results := sig.Results()
	for i := 0; i < results.Len(); i++ {
		if isContextType(results.At(i).Type()) {
			return true
		}
	}
	return false
}
