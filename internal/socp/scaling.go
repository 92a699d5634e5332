package socp

import (
	"math"

	"repro/internal/linalg"
)

// eqScales records the diagonal scalings equilibrateSparse applied, so solutions
// can be mapped back to the original coordinates and caller-supplied warm
// starts can be mapped forward into the equilibrated ones.
type eqScales struct {
	costScale float64       // c̃ = c / σc
	rowScale  linalg.Vector // row i of (G̃ | h̃) = row i of (G | h) / rowScale[i]
}

// equilibrateSparse rescales the problem so the interior-point iterations
// are well conditioned regardless of the magnitudes of objective weights,
// constraint coefficients, or resource capacities:
//
//   - every orthant row of (G | h) is divided by its coefficient inf-norm
//     (one uniform factor per second-order-cone block, which preserves the
//     cone);
//   - the cost vector is divided by max(1, ‖c‖∞).
//
// It returns the scaled problem plus the applied scales; unscale restores
// the solution of the original problem (x is unchanged; slacks, duals, and
// objective values are rescaled). csr is p's constraint matrix in CSR form;
// the scaled copy shares its immutable pattern arrays and clones only the
// values.
func equilibrateSparse(p *Problem, csr *linalg.SparseMatrix) (*Problem, *eqScales) {
	m := p.Dims.Dim()

	costScale := math.Max(1, linalg.NormInf(p.C))
	c := p.C.Clone()
	c.Scale(1 / costScale)

	g := &linalg.SparseMatrix{
		Rows: csr.Rows, Cols: csr.Cols,
		RowPtr: csr.RowPtr, ColIdx: csr.ColIdx,
		Val: append([]float64(nil), csr.Val...),
	}
	h := p.H.Clone()
	rowScale := make(linalg.Vector, m)
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

	sp := &Problem{C: c, GSparse: g, H: h, Dims: p.Dims}
	return sp, &eqScales{costScale: costScale, rowScale: rowScale}
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
// equilibrated ones — the inverse of unscale, applied to a fresh copy (the
// caller's vectors are never written). Iterates with mismatched dimensions
// or non-finite entries return nil, which makes the solver fall back to the
// cold start instead of polluting the iteration.
func (sc *eqScales) scaleWarm(w *WarmStart, n int) *WarmStart {
	if w == nil {
		return nil
	}
	m := len(sc.rowScale)
	if len(w.X) != n || len(w.S) != m || len(w.Z) != m {
		return nil
	}
	sw := &WarmStart{X: w.X.Clone(), S: w.S.Clone(), Z: w.Z.Clone()}
	for i := 0; i < m; i++ {
		sw.S[i] /= sc.rowScale[i]
		sw.Z[i] *= sc.rowScale[i] / sc.costScale
	}
	for _, v := range [][]float64{sw.X, sw.S, sw.Z} {
		for _, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil
			}
		}
	}
	return sw
}
