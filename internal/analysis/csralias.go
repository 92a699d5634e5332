package analysis

import (
	"go/ast"
	"go/types"
)

// csrTypes lists the fixed-pattern types whose backing slices must not
// escape, with the fields that hold them. The whole sparse pipeline — the
// AᵀA scatter plan, the symbolic factorization, the per-iteration numeric
// refill — assumes these slices are mutated only through their owner on an
// immutable pattern; a retained alias lets distant code invalidate a
// symbolic analysis without any local evidence.
var csrFields = map[string]map[string]bool{
	"SparseMatrix":   {"RowPtr": true, "ColIdx": true, "Val": true},
	"SparseCholesky": nil, // nil: every slice-typed field is protected
}

// CSRAlias flags expressions that create a long-lived alias of a
// linalg.SparseMatrix or linalg.SparseCholesky backing slice: returning
// the slice (or a subslice of it) from a function, storing it into a
// struct field, a package-level variable, or a composite literal.
// Transient local views — `row := m.ColIdx[lo:hi]` used within a function
// — stay legal; it is the escape that is flagged, not the read.
//
// The check covers one function body at a time: handing a backing slice
// to a helper that keeps it is not seen.
var CSRAlias = &Analyzer{
	Name: "csralias",
	Doc:  "flags escaping aliases of SparseMatrix/SparseCholesky backing slices",
	Run:  runCSRAlias,
}

func runCSRAlias(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ReturnStmt:
				for _, res := range n.Results {
					if name, ok := backingSlice(pass, res); ok {
						pass.Reportf(res.Pos(), "returning %s aliases a fixed-pattern backing slice; clone it", name)
					}
				}
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					name, ok := backingSlice(pass, rhs)
					if !ok || i >= len(n.Lhs) {
						continue
					}
					if escapingLHS(pass, n.Lhs[i]) {
						pass.Reportf(rhs.Pos(), "storing %s aliases a fixed-pattern backing slice; clone it", name)
					}
				}
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					val := elt
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						val = kv.Value
					}
					if name, ok := backingSlice(pass, val); ok {
						pass.Reportf(val.Pos(), "composite literal captures %s, aliasing a fixed-pattern backing slice; clone it", name)
					}
				}
			}
			return true
		})
	}
}

// backingSlice reports whether e denotes a protected backing slice: a
// field selector on one of the csrFields types, possibly re-sliced.
func backingSlice(pass *Pass, e ast.Expr) (string, bool) {
	for {
		switch x := e.(type) {
		case *ast.SliceExpr:
			e = x.X
			continue
		case *ast.ParenExpr:
			e = x.X
			continue
		}
		break
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	selection, ok := pass.Pkg.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return "", false
	}
	field := selection.Obj().(*types.Var)
	if _, isSlice := field.Type().Underlying().(*types.Slice); !isSlice {
		return "", false
	}
	recv := selection.Recv()
	if ptr, ok := recv.Underlying().(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "repro/internal/linalg" {
		return "", false
	}
	fields, watched := csrFields[named.Obj().Name()]
	if !watched {
		return "", false
	}
	if fields != nil && !fields[field.Name()] {
		return "", false
	}
	return named.Obj().Name() + "." + field.Name(), true
}

// escapingLHS reports whether assigning to the target gives the value a
// home that outlives the enclosing call: a struct field, a dereference, an
// index into non-local storage, or a package-level variable. Plain local
// variables are transient and legal.
func escapingLHS(pass *Pass, lhs ast.Expr) bool {
	switch x := lhs.(type) {
	case *ast.SelectorExpr:
		return true // field store (or package-var via selector)
	case *ast.StarExpr:
		return true
	case *ast.IndexExpr:
		return true // storing into a slice/map cell
	case *ast.Ident:
		obj := pass.Pkg.Info.Defs[x]
		if obj == nil {
			obj = pass.Pkg.Info.Uses[x]
		}
		if obj == nil {
			return false
		}
		// Package-level variable: its scope is the package scope.
		return obj.Parent() == pass.Pkg.Types.Scope()
	}
	return false
}
