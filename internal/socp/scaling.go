package socp

import (
	"math"

	"repro/internal/linalg"
)

// eqScales records the diagonal scalings equilibrate applied, so solutions
// can be mapped back to the original coordinates and caller-supplied warm
// starts can be mapped forward into the equilibrated ones. Its rowScale is
// a space's buffer, rewritten by every equilibrate.
type eqScales struct {
	costScale float64       // c̃ = c / σc
	rowScale  linalg.Vector // row i of (G̃ | h̃) = row i of (G | h) / rowScale[i]
}

// equilibrate writes into dst the equilibrated copy of p, whose
// constraint matrix in CSR form is csr, and records the scales it applied.
// The rescaling keeps the interior-point iterations well conditioned
// regardless of the magnitudes of objective weights, constraint
// coefficients, or resource capacities:
//
//   - every orthant row of (G | h) is divided by its coefficient inf-norm
//     (one uniform factor per second-order-cone block, which preserves the
//     cone);
//   - the cost vector is divided by max(1, ‖c‖∞).
//
// dst is a space's problem: its c, h and G values are overwritten, and its
// G already carries csr's pattern. unscale restores the solution of the
// original problem (x is unchanged; slacks, duals, and objective values are
// rescaled).
func (sc *eqScales) equilibrate(dst, p *Problem, csr *linalg.SparseMatrix) {
	m := p.Dims.Dim()

	sc.costScale = math.Max(1, linalg.NormInf(p.C))
	c := dst.C
	c.CopyFrom(p.C)
	c.Scale(1 / sc.costScale)

	g := dst.GSparse
	copy(g.Val, csr.Val)
	h := dst.H
	h.CopyFrom(p.H)
	rowScale := sc.rowScale
	rowNorm := func(i int) float64 {
		return linalg.NormInf(g.Val[g.RowPtr[i]:g.RowPtr[i+1]])
	}
	// Orthant rows scale independently. Including |h| in the scale keeps
	// loose capacity constraints (tiny coefficients, huge bound) from
	// dominating the least-squares starting point.
	for i := 0; i < p.Dims.NonNeg; i++ {
		r := math.Max(rowNorm(i), math.Abs(h[i]))
		if r == 0 {
			r = 1
		}
		rowScale[i] = r
	}
	// SOC blocks share one factor to stay a cone constraint.
	off := p.Dims.NonNeg
	for _, q := range p.Dims.SOC {
		r := 0.0
		for i := off; i < off+q; i++ {
			if v := math.Max(rowNorm(i), math.Abs(h[i])); v > r {
				r = v
			}
		}
		if r == 0 {
			r = 1
		}
		for i := off; i < off+q; i++ {
			rowScale[i] = r
		}
		off += q
	}
	for i := 0; i < m; i++ {
		inv := 1 / rowScale[i]
		row := g.Val[g.RowPtr[i]:g.RowPtr[i+1]]
		for j := range row {
			row[j] *= inv
		}
		h[i] *= inv
	}
}

// unscale maps a solution of the equilibrated problem back to the original
// coordinates: x unchanged, s = D·s̃, z = σc·D⁻¹·z̃.
func (sc *eqScales) unscale(sol *Solution) {
	if sol == nil {
		return
	}
	m := len(sc.rowScale)
	for i := 0; i < m; i++ {
		if len(sol.S) == m {
			sol.S[i] *= sc.rowScale[i]
		}
		if len(sol.Z) == m {
			sol.Z[i] *= sc.costScale / sc.rowScale[i]
		}
	}
	sol.PrimalObj *= sc.costScale
	sol.DualObj *= sc.costScale
	sol.Gap *= sc.costScale
}

// scaleWarm maps a warm start given in the original coordinates into the
// equilibrated ones — the inverse of unscale — writing it into x, s and z
// (the caller's vectors are never written). Iterates with mismatched
// dimensions or non-finite entries return false, which makes the solver
// fall back to the cold start instead of polluting the iteration.
func (sc *eqScales) scaleWarm(w *WarmStart, x, s, z linalg.Vector) bool {
	if w == nil {
		return false
	}
	m := len(sc.rowScale)
	if len(w.X) != len(x) || len(w.S) != m || len(w.Z) != m {
		return false
	}
	x.CopyFrom(w.X)
	s.CopyFrom(w.S)
	z.CopyFrom(w.Z)
	for i := 0; i < m; i++ {
		s[i] /= sc.rowScale[i]
		z[i] *= sc.rowScale[i] / sc.costScale
	}
	for _, v := range [][]float64{x, s, z} {
		for _, e := range v {
			if math.IsNaN(e) || math.IsInf(e, 0) {
				return false
			}
		}
	}
	return true
}
