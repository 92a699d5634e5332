package linalg

import "sync"

// SparseCholesky is a sparse simplicial LDLᵀ factorization
//
//	P A Pᵀ = L D Lᵀ
//
// with a fill-reducing permutation P, unit lower-triangular L, and diagonal
// D, specialized for the interior-point hot loop where the sparsity pattern
// of A is fixed across iterations while its values change every step:
//
//   - Analyze runs the *symbolic* phase once — the AMD ordering, the
//     elimination tree, the per-column nonzero counts of L, and a permuted
//     upper-triangular view of A's pattern with precomputed value sources —
//     and returns an immutable SymbolicFactor shareable across any number of
//     factorizations of matrices with the same pattern;
//   - NewNumeric binds a SymbolicFactor to freshly allocated numeric
//     workspaces; Factorize / FactorizeQuasiDef then perform the *numeric*
//     refactorization only, in O(nnz(L) · row-width) with zero allocations;
//   - Solve / SolveRefined are sparse triangular solves against the factor.
//
// For a symmetric positive-definite A the factorization is the Cholesky
// factorization in LDLᵀ form (L·diag(√D) is the classical factor); the LDLᵀ
// form avoids square roots and extends to the symmetric quasi-definite
// KKT matrices the solver builds when it splits long rows off the normal
// equations, which are strongly factorizable under any symmetric
// permutation.
type SparseCholesky struct {
	sym *SymbolicFactor

	li []int // row indices of L, len sym.lp[n]
	lx []float64
	d  Vector // diagonal of D

	shift float64 // extra diagonal regularization applied by the last Factorize

	// Workspaces preallocated when the numeric side is bound.
	y       Vector // sparse accumulator of the current row
	pat     []int  // topologically ordered row pattern (etree paths)
	flag    []int  // visitation stamps
	lnz     []int  // per-column fill counters of the running factorization
	w       Vector // permuted right-hand side in Solve
	scratch Vector // refinement residual
}

// SymbolicFactor is the immutable symbolic phase of a sparse LDLᵀ
// factorization: the fill-reducing ordering, the elimination tree, the
// column pointers of L, and the permuted upper-triangular access plan into
// the analyzed pattern. It depends only on the sparsity pattern of the
// analyzed matrix — never on its values — so solves of different matrices
// sharing a pattern (the sweep and serving workloads) can share one
// SymbolicFactor across goroutines: all fields are written once by Analyze
// and only read afterwards.
type SymbolicFactor struct {
	n    int
	perm []int // perm[k] = original index of the k-th pivot
	pinv []int // inverse permutation

	parent []int // elimination tree of the permuted matrix

	// Permuted upper-triangular view of the analyzed pattern: column k of
	// P A Pᵀ restricted to rows i ≤ k is the pairs (ui[p], Val[usrc[p]])
	// for p ∈ [up[k], up[k+1]). usrc indexes straight into the value array
	// of the matrix handed to Factorize, so refactorization needs no
	// re-permutation pass.
	up   []int
	ui   []int
	usrc []int
	nnzA int // pattern stamp checked by Factorize

	lp []int // column pointers of L, len n+1

	// Supernodal layout, computed lazily by Supernodal() because only the
	// blocked backend needs it. The once is the only mutable state of the
	// factor; it synchronizes concurrent first uses.
	snOnce sync.Once
	sn     *SupernodalSymbolic
}

// analyzeOrder is the ordering Analyze computes when the caller supplies
// none. It is a variable only so tests can check AMDOrder on the matrices
// real solves analyze; nothing else assigns it.
var analyzeOrder = AMDOrder

// Analyze runs the symbolic phase on the pattern of the square, structurally
// symmetric matrix a: AMD ordering (or the caller's perm override, mostly
// for tests), elimination tree, per-column counts of L, and the permuted
// upper-triangular access plan. The result is immutable and safe to share.
func Analyze(a *SparseMatrix, perm []int) *SymbolicFactor {
	if a.Rows != a.Cols {
		panic("linalg: sparse Cholesky of non-square matrix")
	}
	n := a.Rows
	if perm == nil {
		perm = analyzeOrder(a)
	}
	if len(perm) != n {
		panic("linalg: SparseCholesky ordering length mismatch")
	}
	s := &SymbolicFactor{n: n, perm: perm, nnzA: a.NNZ()}
	s.pinv = make([]int, n)
	for k, r := range perm {
		s.pinv[r] = k
	}
	// Permuted upper-triangular pattern with value sources: row perm[k] of
	// the (symmetric) input supplies column k of the permuted matrix.
	s.up = make([]int, n+1)
	for k := 0; k < n; k++ {
		r := perm[k]
		cnt := 0
		for t := a.RowPtr[r]; t < a.RowPtr[r+1]; t++ {
			if s.pinv[a.ColIdx[t]] <= k {
				cnt++
			}
		}
		s.up[k+1] = s.up[k] + cnt
	}
	s.ui = make([]int, s.up[n])
	s.usrc = make([]int, s.up[n])
	pos := 0
	for k := 0; k < n; k++ {
		r := perm[k]
		for t := a.RowPtr[r]; t < a.RowPtr[r+1]; t++ {
			if i := s.pinv[a.ColIdx[t]]; i <= k {
				s.ui[pos] = i
				s.usrc[pos] = t
				pos++
			}
		}
	}
	// Elimination tree and column counts of L: one elimination-tree path
	// walk per stored entry (Liu's algorithm). Row k's subtree, cut off at
	// already-visited nodes, is exactly the nonzero pattern of L's row k.
	s.parent = make([]int, n)
	flag := make([]int, n)
	colCount := make([]int, n)
	for k := 0; k < n; k++ {
		s.parent[k] = -1
		flag[k] = k
		for p := s.up[k]; p < s.up[k+1]; p++ {
			for i := s.ui[p]; flag[i] != k; i = s.parent[i] {
				if s.parent[i] == -1 {
					s.parent[i] = k
				}
				colCount[i]++
				flag[i] = k
			}
		}
	}
	s.lp = make([]int, n+1)
	for k := 0; k < n; k++ {
		s.lp[k+1] = s.lp[k] + colCount[k]
	}
	return s
}

// NewNumeric allocates a numeric factorization workspace bound to the
// symbolic structure. Factorize must be called before Solve, and every
// matrix passed to Factorize must carry the exact pattern analyzed here.
// The SymbolicFactor is shared, not copied; many NewNumeric workspaces may
// factorize concurrently against one symbolic analysis.
func (s *SymbolicFactor) NewNumeric() *SparseCholesky {
	n := s.n
	nl := s.lp[n]
	return &SparseCholesky{
		sym:     s,
		li:      make([]int, nl),
		lx:      make([]float64, nl),
		d:       NewVector(n),
		y:       NewVector(n),
		pat:     make([]int, n),
		flag:    make([]int, n),
		lnz:     make([]int, n),
		w:       NewVector(n),
		scratch: NewVector(n),
	}
}

// N returns the analyzed dimension.
func (s *SymbolicFactor) N() int { return s.n }

// NNZL returns the number of stored below-diagonal entries of L — the
// symbolic fill the ordering achieved (the diagonal is implicit).
func (s *SymbolicFactor) NNZL() int { return s.lp[s.n] }

// NewSparseCholesky analyzes the pattern of the square, structurally
// symmetric matrix a and returns a factorization workspace bound to that
// pattern: Analyze followed by NewNumeric. perm overrides the fill-reducing
// ordering (mostly for tests); nil selects AMDOrder.
func NewSparseCholesky(a *SparseMatrix, perm []int) *SparseCholesky {
	return Analyze(a, perm).NewNumeric()
}

// Symbolic returns the shared symbolic phase of the factorization.
func (c *SparseCholesky) Symbolic() *SymbolicFactor { return c.sym }

// NNZL returns the number of stored below-diagonal entries of L.
func (c *SparseCholesky) NNZL() int { return c.sym.NNZL() }

// Shift returns the extra diagonal regularization the last Factorize had to
// apply beyond its static shift (0 if the matrix factorized cleanly).
func (c *SparseCholesky) Shift() float64 { return c.shift }
