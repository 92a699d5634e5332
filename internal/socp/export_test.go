package socp

import (
	"context"
	"math"

	"repro/internal/linalg"
)

// denseLDLT is the dense reference factorization behind the
// linalg.SparseLDLT interface. The positive-definite path (normal
// equations) runs the dense Cholesky and the quasi-definite path (the KKT
// matrix of split rows) the dense LDLᵀ, each on a dense copy of the sparse
// matrix and with the regularization semantics of the sparse backends.
// Plugged in through newSparseChol, it turns a solve into the dense-factor
// oracle: sparse assembly, dense factorization.
type denseLDLT struct {
	n     int
	chol  *denseChol
	ldlt  *denseLDL
	quasi bool // the last factorization was FactorizeQuasiDef
}

var _ linalg.SparseLDLT = (*denseLDLT)(nil)

func newDenseLDLT(n int) *denseLDLT {
	return &denseLDLT{n: n, chol: newDenseChol(n), ldlt: newDenseLDL(n)}
}

// Factorize factors a + shift·I with the dense Cholesky, which escalates an
// extra shift from reg by powers of ten on breakdown.
func (d *denseLDLT) Factorize(a *linalg.SparseMatrix, shift, reg float64) error {
	m := toDense(a)
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
	return d.ldlt.Factorize(toDense(a), eps)
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
		d.ldlt.SolveRefined(toDense(a), b, x)
	} else {
		d.chol.SolveRefined(toDense(a), b, x)
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
	newSparseChol = func(m *linalg.SparseMatrix, _ *linalg.SymbolicFactor, _ Factorization, _ int) linalg.SparseLDLT {
		return newDenseLDLT(m.Rows)
	}
	return func() { newSparseChol = prev }
}

// UseUnsplitNormalEq makes every solve started until the returned restore
// runs assemble all rows of W⁻¹G into H, however long: the normal-equations
// path without the split. Tests using it must not run in parallel with
// other solves.
func UseUnsplitNormalEq() (restore func()) {
	prev := maxNormalEqRow
	maxNormalEqRow = math.MaxInt
	return func() { maxNormalEqRow = prev }
}

// KKTStructure reports, for p's unequilibrated pattern on the simplicial
// backend, how many rows of W⁻¹G are split off H, the nonzeros of H, the
// dimension of the factored matrix, and the nonzeros of its L factor.
func KKTStructure(p *Problem) (split, nnzH, dim, nnzL int) {
	sv := newSparseView(p.GSparse, p.Dims)
	ne := newNEFactor(sv, nil, FactorSparse, 1)
	sym := ne.chol.Symbolic()
	return len(sv.split), ne.ata.Result.NNZ(), sym.N(), sym.NNZL()
}

// testView returns the sparse view of p, which must carry GSparse, loaded
// with p's values.
func testView(p *Problem) *sparseView {
	sv := newSparseView(p.GSparse, p.Dims)
	sv.load()
	return sv
}

// unscaledState returns a solver state on a fresh space holding p itself,
// not equilibrated, on the simplicial backend: what the tests of the
// factored solve drive. p must carry GSparse.
func unscaledState(p *Problem) *state {
	sp := newSpace(p.GSparse, p.Dims, FactorSparse)
	sp.prob.C.CopyFrom(p.C)
	copy(sp.prob.GSparse.Val, p.GSparse.Val)
	sp.prob.H.CopyFrom(p.H)
	sp.sv.load()
	return sp.start(context.Background(), Options{}.withDefaults())
}

// acquirePipeline acquires a space for p's pattern from pc and takes its
// factorization pipeline, as a solve's first factorization does; it counts
// one hit or miss. p must carry GSparse.
func acquirePipeline(pc *PatternCache, p *Problem, backend Factorization, workers int) *space {
	sp := pc.acquire(p.GSparse, p.Dims, backend)
	sp.pipeline(workers)
	return sp
}

// FullTolerance reports whether sol, the result of a solve of p with opt,
// meets the run loop's full stopping rule, not only the reduced tolerances
// of acceptReduced. The rule reads the gap of the equilibrated problem,
// which is sol.Gap before unscale multiplied it by p's cost scale.
func FullTolerance(p *Problem, sol *Solution, opt Options) bool {
	opt = opt.withDefaults()
	sp := newSpace(p.GSparse, p.Dims, FactorSparse)
	sp.eq.equilibrate(&sp.prob, p, p.GSparse)
	gap := sol.Gap / sp.eq.costScale
	return sol.PrimalRes <= opt.FeasTol && sol.DualRes <= opt.FeasTol &&
		(gap <= opt.AbsTol || sol.RelGap <= opt.RelTol)
}
