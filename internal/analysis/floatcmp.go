package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// FloatCmp flags == and != between floating-point expressions. Exact
// floating-point equality is almost never what the SRDF/SOCP pipeline
// means: the paper's Constraint 1 and the λβ ≥ 1 relaxation survive
// rounding only because every feasibility decision goes through a
// tolerance. The one legal exception is comparison against an exact-zero
// sentinel — the zero Options value selecting a default, or skipping a
// structurally zero matrix entry — because those zeros are assigned, never
// computed.
var FloatCmp = &Analyzer{
	Name: "floatcmp",
	Doc:  "flags ==/!= between floats except against exact zero-value sentinels",
	Run:  runFloatCmp,
}

func runFloatCmp(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			cmp, ok := n.(*ast.BinaryExpr)
			if !ok || (cmp.Op != token.EQL && cmp.Op != token.NEQ) {
				return true
			}
			if !isFloat(info, cmp.X) || !isFloat(info, cmp.Y) {
				return true
			}
			// Both sides constant: the comparison is compile-time exact.
			if isConst(info, cmp.X) && isConst(info, cmp.Y) {
				return true
			}
			// Exact-zero sentinel comparisons stay legal.
			if isZeroConst(info, cmp.X) || isZeroConst(info, cmp.Y) {
				return true
			}
			pass.Reportf(cmp.OpPos, "floating-point %s comparison; use a tolerance helper (or bbvet:allow with a reason for a deliberate exact guard)", cmp.Op)
			return true
		})
	}
}

// isFloat reports whether the expression's type has a floating-point
// underlying type (including untyped float constants).
func isFloat(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func isConst(info *types.Info, e ast.Expr) bool {
	return info.Types[e].Value != nil
}

// isZeroConst reports whether e is a constant whose value is exactly zero.
func isZeroConst(info *types.Info, e ast.Expr) bool {
	v := info.Types[e].Value
	return v != nil && (v.Kind() == constant.Int || v.Kind() == constant.Float) && constant.Sign(v) == 0
}
