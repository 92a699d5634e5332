package socp

import "repro/internal/linalg"

// denseLDLT is the dense reference factorization behind the
// linalg.SparseLDLT interface. The positive-definite path (normal
// equations, pe == 0) runs the dense Cholesky and the quasi-definite path
// (reduced KKT, pe > 0) the dense LDLᵀ, each on a dense copy of the sparse
// matrix and with the regularization semantics of the sparse backends.
// Plugged in through newSparseChol, it turns a solve into the dense-factor
// oracle: sparse assembly, dense factorization.
type denseLDLT struct {
	n     int
	chol  *linalg.Cholesky
	ldlt  *linalg.LDLT
	quasi bool // the last factorization was FactorizeQuasiDef
}

var _ linalg.SparseLDLT = (*denseLDLT)(nil)

func newDenseLDLT(n int) *denseLDLT {
	return &denseLDLT{n: n, chol: linalg.NewCholeskyWorkspace(n), ldlt: linalg.NewLDLTWorkspace(n)}
}

// Factorize factors a + shift·I with the dense Cholesky, which escalates an
// extra shift from reg by powers of ten on breakdown.
func (d *denseLDLT) Factorize(a *linalg.SparseMatrix, shift, reg float64) error {
	m := a.ToDense()
	for i := 0; i < d.n; i++ {
		m.Add(i, i, shift)
	}
	d.quasi = false
	return d.chol.Factorize(m, reg)
}

// FactorizeQuasiDef factors a with the dense LDLᵀ, flooring small pivots
// at ±eps.
func (d *denseLDLT) FactorizeQuasiDef(a *linalg.SparseMatrix, eps float64) error {
	d.quasi = true
	return d.ldlt.Factorize(a.ToDense(), eps)
}

func (d *denseLDLT) Solve(b linalg.Vector) {
	if d.quasi {
		d.ldlt.Solve(b)
	} else {
		d.chol.Solve(b)
	}
}

func (d *denseLDLT) SolveRefined(a *linalg.SparseMatrix, b, x linalg.Vector) {
	if d.quasi {
		d.ldlt.SolveRefined(a.ToDense(), b, x)
	} else {
		d.chol.SolveRefined(a.ToDense(), b, x)
	}
}

func (d *denseLDLT) Shift() float64 {
	if d.quasi {
		return 0
	}
	return d.chol.Shift()
}

func (d *denseLDLT) Symbolic() *linalg.SymbolicFactor { return nil }

// UseDenseFactorOracle makes every factorization pipeline built until the
// returned restore runs factor with the dense reference instead of the
// sparse backends. Solves in flight while it is active must not share a
// PatternCache with later solves, and tests using it must not run in
// parallel with other solves.
func UseDenseFactorOracle() (restore func()) {
	prev := newSparseChol
	newSparseChol = func(m *linalg.SparseMatrix, _ *linalg.SymbolicCache, _ Factorization, _ int) linalg.SparseLDLT {
		return newDenseLDLT(m.Rows)
	}
	return func() { newSparseChol = prev }
}
