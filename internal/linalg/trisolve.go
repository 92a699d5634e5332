package linalg

// Solve solves A x = b in place against the current numeric factorization:
// the right-hand side is permuted, run through the unit-lower forward solve
// and then the transposed backward solve, which divides each entry by its
// pivot as it reaches it, and permuted back. Only the stored nonzeros of L
// are visited, so a solve costs O(n + nnz(L)).
func (c *SparseCholesky) Solve(b Vector) {
	sym := c.sym
	n := sym.n
	if len(b) != n {
		panic("linalg: SparseCholesky.Solve dimension mismatch")
	}
	w, d := c.w[:n], c.d[:n]
	perm, lp := sym.perm[:n], sym.lp[:n+1]
	li, lx := c.li[:lp[n]], c.lx[:lp[n]]
	for k, pk := range perm {
		w[k] = b[pk]
	}
	// L w = w: column-oriented forward substitution. When column k is
	// reached every update from columns < k has been applied, so w[k] is
	// final and scatters into the rows below.
	for k := range w {
		if wk := w[k]; wk != 0 {
			lo, hi := lp[k], lp[k+1]
			rows, vals := li[lo:hi], lx[lo:hi]
			rows = rows[:len(vals)]
			for p, v := range vals {
				w[rows[p]] -= v * wk
			}
		}
	}
	// D Lᵀ w = w: the transposed solve gathers from the rows below, walking
	// the columns backwards. The rows below k are final when column k is
	// reached, and w[k] itself is untouched since the forward pass, so
	// dividing it by its pivot here is the separate diagonal solve.
	for k := n - 1; k >= 0; k-- {
		wk := w[k] / d[k]
		lo, hi := lp[k], lp[k+1]
		rows, vals := li[lo:hi], lx[lo:hi]
		rows = rows[:len(vals)]
		for p, v := range vals {
			wk -= v * w[rows[p]]
		}
		w[k] = wk
	}
	for k, pk := range perm {
		b[pk] = w[k]
	}
}

// SolveRefined solves A x = b with one step of iterative refinement against
// the matrix a — normally the unshifted original, so the refinement also
// sweeps out the error introduced by diagonal regularization. The solution
// is written into x; b is not modified.
func (c *SparseCholesky) SolveRefined(a *SparseMatrix, b, x Vector) {
	if len(x) != c.sym.n || len(b) != c.sym.n {
		panic("linalg: SparseCholesky.SolveRefined dimension mismatch")
	}
	x.CopyFrom(b)
	c.Solve(x)
	r := c.scratch
	a.Residual(r, b, x)
	c.Solve(r)
	x.AddScaled(1, r)
}
