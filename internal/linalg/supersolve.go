package linalg

// SparseLDLT is the interface shared by the sparse LDLᵀ backends — the
// simplicial SparseCholesky and the blocked SupernodalCholesky — so the
// solver's KKT pipeline can select a backend per problem size without
// duplicating the factor-then-solve plumbing. Both implementations carry
// identical shift-retry and quasi-definite-floor semantics.
type SparseLDLT interface {
	// Factorize numerically refactorizes P (A + shift·I) Pᵀ = L D Lᵀ,
	// escalating the extra shift by powers of ten up to 1e8·reg on
	// non-positive pivots before returning ErrNotPositiveDefinite.
	Factorize(a *SparseMatrix, shift, reg float64) error
	// FactorizeQuasiDef refactorizes a symmetric quasi-definite matrix,
	// flooring small diagonal pivots at ±eps preserving sign.
	FactorizeQuasiDef(a *SparseMatrix, eps float64) error
	// Solve solves A x = b in place against the current factorization.
	Solve(b Vector)
	// SolveRefined solves A x = b into x with one step of iterative
	// refinement against a (normally the unshifted original).
	SolveRefined(a *SparseMatrix, b, x Vector)
	// Shift returns the extra regularization the last Factorize applied.
	Shift() float64
	// Symbolic returns the shared symbolic phase.
	Symbolic() *SymbolicFactor
}

var (
	_ SparseLDLT = (*SparseCholesky)(nil)
	_ SparseLDLT = (*SupernodalCholesky)(nil)
)

// Solve solves A x = b in place against the current numeric factorization:
// permute, blocked unit-lower forward solve, diagonal scaling, blocked
// transposed backward solve, permute back. Panels are visited in ascending
// (forward) / descending (backward) order; within a panel the dense
// diagonal-block triangular solve and a panel-row mat-vec replace the
// per-column scatter of the simplicial solve.
func (c *SupernodalCholesky) Solve(b Vector) {
	sym, ss := c.sym, c.ss
	if len(b) != sym.n {
		panic("linalg: SupernodalCholesky.Solve dimension mismatch")
	}
	n, w := sym.n, c.w
	perm := sym.perm
	rows := ss.rows
	for k := 0; k < n; k++ {
		w[k] = b[perm[k]]
	}
	for s := 0; s < ss.ns; s++ {
		c0 := int(ss.colPtr[s])
		ws := int(ss.colPtr[s+1]) - c0
		rlo := int(ss.rowPtr[s])
		nr := int(ss.rowPtr[s+1]) - rlo
		P := c.px[ss.valPtr[s]:ss.valPtr[s+1]]
		// Unit-lower triangular solve on the diagonal block.
		for cc := 0; cc < ws; cc++ {
			xc := w[c0+cc]
			prow := P[cc*ws : cc*ws+cc]
			for q, l := range prow {
				xc -= l * w[c0+q]
			}
			w[c0+cc] = xc
		}
		// Below-block rows: one dense dot per row, scattered to the row's
		// global index.
		for r := ws; r < nr; r++ {
			prow := P[r*ws : r*ws+ws]
			var acc float64
			for q, l := range prow {
				acc += l * w[c0+q]
			}
			w[rows[rlo+r]] -= acc
		}
	}
	for k := 0; k < n; k++ {
		w[k] /= c.d[k]
	}
	for s := ss.ns - 1; s >= 0; s-- {
		c0 := int(ss.colPtr[s])
		ws := int(ss.colPtr[s+1]) - c0
		rlo := int(ss.rowPtr[s])
		nr := int(ss.rowPtr[s+1]) - rlo
		P := c.px[ss.valPtr[s]:ss.valPtr[s+1]]
		// Gather the below-block contributions: acc = L_belowᵀ · w[rows].
		acc := c.acc[:ws]
		for q := range acc {
			acc[q] = 0
		}
		for r := ws; r < nr; r++ {
			t := w[rows[rlo+r]]
			if t == 0 {
				continue
			}
			prow := P[r*ws : r*ws+ws]
			for q, l := range prow {
				acc[q] += l * t
			}
		}
		// Transposed unit-lower solve on the diagonal block, bottom up.
		for cc := ws - 1; cc >= 0; cc-- {
			v := w[c0+cc] - acc[cc]
			for r := cc + 1; r < ws; r++ {
				v -= P[r*ws+cc] * w[c0+r]
			}
			w[c0+cc] = v
		}
	}
	for k := 0; k < n; k++ {
		b[perm[k]] = w[k]
	}
}

// SolveRefined solves A x = b with one step of iterative refinement against
// the matrix a — normally the unshifted original, so the refinement also
// sweeps out the error introduced by diagonal regularization. The solution
// is written into x; b is not modified. The residual scratch is owned by
// the workspace, so steady-state refined solves allocate nothing.
func (c *SupernodalCholesky) SolveRefined(a *SparseMatrix, b, x Vector) {
	if len(x) != c.sym.n || len(b) != c.sym.n {
		panic("linalg: SupernodalCholesky.SolveRefined dimension mismatch")
	}
	x.CopyFrom(b)
	c.Solve(x)
	r := c.scratch
	a.Residual(r, b, x)
	c.Solve(r)
	x.AddScaled(1, r)
}
