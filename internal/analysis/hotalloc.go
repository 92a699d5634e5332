package analysis

import (
	"go/ast"
	"go/types"
)

// HotAlloc statically pins the zero-alloc guarantee of functions annotated
// with //bbvet:hotpath — the per-iteration interior-point refactorization
// path (sparse AᵀA refill, numeric LDLᵀ, triangular solves). Inside an
// annotated function it flags every construct that can hit the allocator:
// make, new, append growth, map/slice composite literals, taking the
// address of a composite literal, closure creation, go statements, and
// interface boxing at call, conversion, assignment, and return sites.
// panic arguments are exempt — a terminating error path may allocate.
//
// The check covers the annotated body only. What a call out of it does —
// into an unannotated helper, the standard library, or through a function
// value or interface — is left to the testing.AllocsPerRun guards in the
// annotated packages, which measure the whole call tree at run time.
//
// The annotation is a contract, not an inference: hotalloc checks exactly
// the functions the author marked.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "flags allocation sites inside //bbvet:hotpath function bodies",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !funcHotpath(fn) {
				continue
			}
			checkHotFunc(pass, fn)
		}
	}
}

func checkHotFunc(pass *Pass, fn *ast.FuncDecl) {
	info := pass.Pkg.Info
	var results *types.Tuple
	if sig, ok := info.Defs[fn.Name].Type().(*types.Signature); ok {
		results = sig.Results()
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			switch {
			case isBuiltin(info, n.Fun, "make"):
				pass.Reportf(n.Lparen, "make allocates in a hotpath function")
			case isBuiltin(info, n.Fun, "new"):
				pass.Reportf(n.Lparen, "new allocates in a hotpath function")
			case isBuiltin(info, n.Fun, "append"):
				pass.Reportf(n.Lparen, "append may grow its backing array in a hotpath function")
			case isBuiltin(info, n.Fun, "panic"):
				// Terminating error path; allowed to allocate.
				return false
			case info.Types[n.Fun].IsType():
				// Conversion: T(x) boxes when T is an interface.
				to := info.Types[n.Fun].Type
				if len(n.Args) == 1 && isInterface(to) && boxes(info, n.Args[0]) {
					pass.Reportf(n.Lparen, "conversion to %s boxes in a hotpath function", types.TypeString(to, types.RelativeTo(pass.Pkg.Types)))
				}
			default:
				checkCallBoxing(pass, n)
			}
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure allocates in a hotpath function")
			return false // the closure body is not the annotated hot path
		case *ast.CompositeLit:
			if t := info.Types[n].Type; t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					pass.Reportf(n.Pos(), "composite literal allocates in a hotpath function")
				}
			}
		case *ast.UnaryExpr:
			if _, ok := n.X.(*ast.CompositeLit); ok {
				pass.Reportf(n.OpPos, "address of composite literal allocates in a hotpath function")
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				lt := info.Types[lhs].Type
				if lt != nil && isInterface(lt) && boxes(info, n.Rhs[i]) {
					pass.Reportf(n.Rhs[i].Pos(), "assignment boxes into an interface in a hotpath function")
				}
			}
		case *ast.ReturnStmt:
			if results == nil || len(n.Results) != results.Len() {
				return true
			}
			for i, res := range n.Results {
				rt := results.At(i).Type()
				if isInterface(rt) && boxes(info, res) {
					pass.Reportf(res.Pos(), "return boxes into an interface in a hotpath function")
				}
			}
		case *ast.GoStmt:
			pass.Reportf(n.Go, "go statement allocates a goroutine in a hotpath function")
		}
		return true
	})
}

// checkCallBoxing flags concrete arguments passed in interface-typed
// parameter slots (including variadic ...interface{} slots).
func checkCallBoxing(pass *Pass, call *ast.CallExpr) {
	info := pass.Pkg.Info
	sig, ok := info.Types[call.Fun].Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	if params.Len() == 0 {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= params.Len()-1 {
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		} else if i < params.Len() {
			pt = params.At(i).Type()
		}
		if pt != nil && isInterface(pt) && boxes(info, arg) {
			pass.Reportf(arg.Pos(), "argument boxes into an interface in a hotpath function")
		}
	}
}

// boxes reports whether passing e into an interface-typed slot performs an
// interface conversion that may allocate: e has a concrete type (not an
// interface, not untyped nil).
func boxes(info *types.Info, e ast.Expr) bool {
	tv := info.Types[e]
	if tv.Type == nil || tv.IsNil() {
		return false
	}
	if _, isIface := tv.Type.Underlying().(*types.Interface); isIface {
		return false
	}
	return true
}

func isInterface(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}
