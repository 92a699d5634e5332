package socp

import (
	"sort"

	"repro/internal/linalg"
)

// neFactor is the sparse factorization pipeline of one solve. The symbolic
// work — the AᵀA scatter plan for H = (W⁻¹G)ᵀ(W⁻¹G), the fill-reducing AMD
// ordering, the elimination tree, and the symbolic factorization — is done
// once per problem, because the scaled-G pattern the sparse view fixes makes
// H's pattern iteration-invariant. Each interior-point iteration then only
// refills numeric values and runs the numeric refactorization, dropping the
// per-iteration factor cost from the dense O(n³) to O(nnz(L)·row-width).
type neFactor struct {
	ata  *linalg.SparseAtA // H on its fixed pattern
	chol linalg.SparseLDLT // factor of H (pe == 0) or of the reduced KKT (pe > 0)

	// pe > 0: the quasi-definite reduced KKT matrix [[H+regI, Aᵀ], [A, −regI]]
	// on a fixed pattern. The A blocks are written at construction (and
	// rewritten by setStaticA when a pooled pipeline moves to a new problem);
	// fillKKT refreshes the H block and the regularized diagonal.
	kkt     *linalg.SparseMatrix
	hDst    []int  // kkt.Val position of each H entry
	diag    []int  // kkt.Val position of each diagonal entry, len n+pe
	diagInH []bool // whether diagonal i < n is part of H's pattern
	// aDstU and aDstL are the kkt.Val positions of A entry t in the upper
	// (Aᵀ) and lower (A) block, so setStaticA rewrites without index search.
	aDstU []int
	aDstL []int
	pe    int

	// cacheEntry backlinks a cache-built pipeline to its pattern's pool so
	// PatternCache.release can return it; nil for uncached pipelines.
	cacheEntry *patternEntry
}

// newNEFactor runs the symbolic analysis for the sparse view's fixed
// pattern. a is the problem's equality-constraint matrix in CSR form (nil
// without equalities). A non-nil syms shares the factorization's symbolic
// analysis (ordering, etree, column pattern) across concurrent builds of
// the same pattern; nil analyzes locally. backend must be a resolved
// factorization choice — FactorSparse or FactorSupernodal, never
// FactorAuto — and workers bounds the supernodal worker pool.
func newNEFactor(sv *sparseView, a *linalg.SparseMatrix, syms *linalg.SymbolicCache, backend Factorization, workers int) *neFactor {
	f := &neFactor{ata: linalg.NewSparseAtA(sv.gs)}
	h := f.ata.Result
	if a == nil {
		f.chol = newSparseChol(h, syms, backend, workers)
		return f
	}
	n, pe := h.Rows, a.Rows
	f.pe = pe
	// Fixed pattern of the reduced KKT matrix, with an explicit diagonal
	// everywhere so the ±reg regularization always has a slot.
	atCols := make([][]int, n)
	for e := 0; e < pe; e++ {
		for t := a.RowPtr[e]; t < a.RowPtr[e+1]; t++ {
			j := a.ColIdx[t]
			atCols[j] = append(atCols[j], n+e)
		}
	}
	pattern := make([][]int, n+pe)
	for i := 0; i < n; i++ {
		hrow := h.ColIdx[h.RowPtr[i]:h.RowPtr[i+1]]
		cols := make([]int, 0, len(hrow)+len(atCols[i])+1)
		cols = append(cols, hrow...)
		if h.Index(i, i) < 0 {
			k := sort.SearchInts(cols, i)
			cols = append(cols, 0)
			copy(cols[k+1:], cols[k:])
			cols[k] = i
		}
		cols = append(cols, atCols[i]...) // A-block columns are ≥ n and ascending
		pattern[i] = cols
	}
	for e := 0; e < pe; e++ {
		arow := a.ColIdx[a.RowPtr[e]:a.RowPtr[e+1]]
		cols := make([]int, 0, len(arow)+1)
		cols = append(cols, arow...)
		cols = append(cols, n+e)
		pattern[n+e] = cols
	}
	f.kkt = linalg.NewSparseFromPattern(n+pe, n+pe, pattern)
	// Static A blocks, with the positions recorded for setStaticA.
	f.aDstU = make([]int, a.NNZ())
	f.aDstL = make([]int, a.NNZ())
	for e := 0; e < pe; e++ {
		for t := a.RowPtr[e]; t < a.RowPtr[e+1]; t++ {
			j := a.ColIdx[t]
			f.aDstL[t] = f.kkt.Index(n+e, j)
			f.aDstU[t] = f.kkt.Index(j, n+e)
		}
	}
	f.setStaticA(a)
	// Scatter map for the H block and the diagonal slots.
	f.hDst = make([]int, h.NNZ())
	for i := 0; i < n; i++ {
		for t := h.RowPtr[i]; t < h.RowPtr[i+1]; t++ {
			f.hDst[t] = f.kkt.Index(i, h.ColIdx[t])
		}
	}
	f.diag = make([]int, n+pe)
	for i := 0; i < n+pe; i++ {
		f.diag[i] = f.kkt.Index(i, i)
	}
	f.diagInH = make([]bool, n)
	for i := 0; i < n; i++ {
		f.diagInH[i] = h.Index(i, i) >= 0
	}
	f.chol = newSparseChol(f.kkt, syms, backend, workers)
	return f
}

// newSparseChol builds the numeric factorization workspace for m's pattern
// on the requested backend, sharing the symbolic analysis through syms when
// one is supplied. It runs once per pipeline build, never per iteration. It
// is a variable only so tests can plug in a dense reference factorization
// as an oracle; nothing else assigns it.
var newSparseChol = func(m *linalg.SparseMatrix, syms *linalg.SymbolicCache, backend Factorization, workers int) linalg.SparseLDLT {
	if backend == FactorSupernodal {
		if syms != nil {
			return syms.AcquireSupernodal(m, workers)
		}
		return linalg.Analyze(m, nil).NewSupernodal(workers)
	}
	if syms != nil {
		return syms.Acquire(m)
	}
	return linalg.NewSparseCholesky(m, nil)
}

// setStaticA rewrites the equality blocks of the reduced KKT matrix with
// the values of a, which must carry the analyzed pattern. No-op without
// equalities.
//
//bbvet:hotpath
func (f *neFactor) setStaticA(a *linalg.SparseMatrix) {
	if f.pe == 0 {
		return
	}
	kv := f.kkt.Val
	av := a.Val
	for t, d := range f.aDstL {
		kv[d] = av[t]
		kv[f.aDstU[t]] = av[t]
	}
}

// fillKKT refreshes the reduced KKT values for the current H and the given
// static regularization: the H block is copied through the scatter map and
// the diagonal becomes H(i,i)+reg on the variable block and −reg on the
// equality block.
//
//bbvet:hotpath
func (f *neFactor) fillKKT(reg float64) {
	hv := f.ata.Result.Val
	kv := f.kkt.Val
	for t, d := range f.hDst {
		kv[d] = hv[t]
	}
	n := f.ata.Result.Rows
	for i := 0; i < n; i++ {
		if !f.diagInH[i] {
			kv[f.diag[i]] = 0
		}
		kv[f.diag[i]] += reg
	}
	for e := 0; e < f.pe; e++ {
		kv[f.diag[n+e]] = -reg
	}
}

// normalEq returns the sparse factorization pipeline of the view, acquiring
// it from the pattern cache (when one is configured) or running the
// symbolic analysis locally on first use. backend must be resolved (never
// FactorAuto); pipelines are cached per (pattern, backend) pair.
//
//bbvet:hotpath
func (sv *sparseView) normalEq(pc *PatternCache, backend Factorization, workers int) *neFactor {
	if sv.ne == nil {
		if pc != nil {
			sv.ne = pc.acquire(sv, backend, workers)
		} else {
			//bbvet:allow hotalloc no cache configured: the pipeline is built once per solve view
			sv.ne = newNEFactor(sv, sv.a, nil, backend, workers)
		}
	}
	return sv.ne
}
