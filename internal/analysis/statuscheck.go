package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// statusFuncs are the result-bearing entry points whose outcome must never
// be dropped: the SOCP/LP/core solvers report infeasibility and numerical
// breakdown through Status values and errors, and a factorization that
// failed leaves its workspace unusable.
var statusFuncs = map[string]bool{
	"Solve":             true,
	"SolveContext":      true,
	"Factorize":         true,
	"FactorizeQuasiDef": true,
	"RunSweep":          true,
	"SweepBufferCaps":   true,
	"ParetoFrontier":    true,
	"BuildProblem":      true,
	"Verify":            true,
	// bbserve entry points: a dropped Sweep loses per-point failures, and a
	// dropped Drain hides that the drain bound expired and solves were
	// force-canceled.
	"Sweep": true,
	"Drain": true,
}

// StatusCheck flags call sites that discard the Status or error results of
// the solver entry points — a bare call statement, or an assignment that
// sends every Status/error result to the blank identifier. Only calls into
// this module are checked: stdlib functions that happen to share a name
// (e.g. flag.FlagSet's parse helpers) are not the solver's contract.
var StatusCheck = &Analyzer{
	Name: "statuscheck",
	Doc:  "flags dropped Status/error results of Solve, Factorize, and the core entry points",
	Run:  runStatusCheck,
}

func runStatusCheck(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					if name, sig := statusCallee(pass, call); sig != nil && hasStatusResult(sig) {
						pass.Reportf(call.Lparen, "result of %s dropped; check its Status/error", name)
					}
				}
			case *ast.AssignStmt:
				checkStatusAssign(pass, n)
			}
			return true
		})
	}
}

// checkStatusAssign flags `a, _ := Solve(...)`-style assignments where all
// of the call's Status/error results land in blank identifiers.
func checkStatusAssign(pass *Pass, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	name, sig := statusCallee(pass, call)
	if sig == nil {
		return
	}
	results := sig.Results()
	if len(as.Lhs) != results.Len() {
		return
	}
	dropped := false
	for i := 0; i < results.Len(); i++ {
		if !isStatusOrError(results.At(i).Type()) {
			continue
		}
		id, blank := as.Lhs[i].(*ast.Ident)
		if blank && id.Name == "_" {
			dropped = true
		} else {
			return // at least one Status/error result is kept
		}
	}
	if dropped {
		pass.Reportf(call.Lparen, "Status/error result of %s assigned to _; check it", name)
	}
}

// statusCallee resolves a call to one of the watched entry points declared
// inside this module, returning its display name and signature.
func statusCallee(pass *Pass, call *ast.CallExpr) (string, *types.Signature) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr: // generic instantiation, e.g. RunSweep[T](...)
		if sub, ok := fun.X.(*ast.Ident); ok {
			id = sub
		} else if sel, ok := fun.X.(*ast.SelectorExpr); ok {
			id = sel.Sel
		}
	}
	if id == nil || !statusFuncs[id.Name] {
		return "", nil
	}
	obj := pass.Pkg.Info.Uses[id]
	if obj == nil || obj.Pkg() == nil {
		return "", nil
	}
	modPath := moduleOf(pass.Pkg.Path)
	if moduleOf(obj.Pkg().Path()) != modPath {
		return "", nil
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return "", nil
	}
	return id.Name, sig
}

// moduleOf returns the first path element — enough to scope the check to
// this module, whose packages all share the "repro" root (fixture packages
// included).
func moduleOf(path string) string {
	if i := strings.IndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return path
}

// hasStatusResult reports whether the signature returns an error or a
// Status-typed value (directly or inside a returned struct pointer is out
// of scope — the flagged entry points all return them directly).
func hasStatusResult(sig *types.Signature) bool {
	results := sig.Results()
	for i := 0; i < results.Len(); i++ {
		if isStatusOrError(results.At(i).Type()) {
			return true
		}
	}
	return false
}

func isStatusOrError(t types.Type) bool {
	if named, ok := t.(*types.Named); ok && named.Obj().Name() == "Status" {
		return true
	}
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
