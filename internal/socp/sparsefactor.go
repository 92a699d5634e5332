package socp

import "repro/internal/linalg"

// neFactor is the sparse factorization pipeline of one solve. The symbolic
// work — the AᵀA scatter plan for H = (W⁻¹G)ᵀ(W⁻¹G), the fill-reducing AMD
// ordering, the elimination tree, and the symbolic factorization — is done
// once per problem, because the scaled-G pattern the sparse view fixes makes
// H's pattern iteration-invariant. Each interior-point iteration then only
// refills numeric values and runs the numeric refactorization, dropping the
// per-iteration factor cost from the dense O(n³) to O(nnz(L)·row-width).
//
// H covers only the short rows of W⁻¹G (H_s). The long rows the sparse view
// splits off (B) enter a quasi-definite KKT matrix instead:
//
//	[ H_s+reg·I  Bᵀ ] [x]   [r]
//	[ B          −I ] [u] = [0]
//
// Eliminating u = Bx gives back (H_s + BᵀB)x = r with H_s + BᵀB = H, so the
// factorization solves the same system while a row of width w adds w
// entries to the matrix instead of a dense w×w block.
type neFactor struct {
	ata  *linalg.SparseAtA // H_s on its fixed pattern
	chol linalg.SparseLDLT // factor of H (kkt == nil) or of the KKT matrix

	// kkt is the quasi-definite KKT matrix above on a fixed pattern, nil
	// when no row is split off (then H itself is factored). fillKKT
	// rewrites all of its values.
	kkt   *linalg.SparseMatrix
	hDst  []int // kkt.Val position of each H entry
	diag  []int // kkt.Val position of each diagonal entry, len n+nd
	hDiag []int // H.Val position of diagonal entry i < n, −1 if not in H
	// dstU and dstL are the kkt.Val positions of B entry t in the upper
	// (Bᵀ) and lower (B) blocks, so the refills write without index search.
	// bSrc is the W⁻¹G value position of B entry t.
	dstU, dstL []int
	bSrc       []int
	nd         int // split rows

	hii linalg.Vector // scratch of hMax, len n (nd > 0)

	// bytes estimates the memory the pipeline holds (see footprint); the
	// pattern cache bounds its idle pipelines by it.
	bytes int

	// cacheEntry backlinks a cache-built pipeline to its pattern's free
	// list so PatternCache.release can return it; nil for uncached
	// pipelines.
	cacheEntry *patternEntry
}

// newNEFactor builds the factorization pipeline for the sparse view's
// fixed pattern. A non-nil sym is the symbolic analysis (ordering, etree,
// column pattern) of the factored matrix, shared with other pipelines of
// the same pattern; nil analyzes locally. backend must be a resolved
// factorization choice — FactorSparse or FactorSupernodal, never
// FactorAuto — and workers bounds the supernodal worker pool.
func newNEFactor(sv *sparseView, sym *linalg.SymbolicFactor, backend Factorization, workers int) *neFactor {
	f := &neFactor{ata: linalg.NewSparseAtASkip(sv.gs, sv.splitMask)}
	h := f.ata.Result
	if len(sv.split) == 0 {
		f.chol = newSparseChol(h, sym, backend, workers)
		f.bytes = f.footprint()
		return f
	}
	gs := sv.gs
	n := h.Rows
	f.nd = len(sv.split)
	dim := n + f.nd
	// Fixed pattern of the KKT matrix, with an explicit diagonal everywhere
	// so the regularization always has a slot. One counting pass sizes the
	// rows; the fill pass then writes every column index and records every
	// scatter position into flat slices. Row i < n holds H_s row i
	// (diagonal inserted), then its Bᵀ columns, which ascend because the
	// split rows are visited in order.
	rowPtr := make([]int, dim+1)
	for i := 0; i < n; i++ {
		rowPtr[i+1] = h.RowPtr[i+1] - h.RowPtr[i]
		if h.Index(i, i) < 0 {
			rowPtr[i+1]++
		}
	}
	nb := 0 // entries of B
	for k, r := range sv.split {
		lo, hi := gs.RowPtr[r], gs.RowPtr[r+1]
		for t := lo; t < hi; t++ {
			rowPtr[gs.ColIdx[t]+1]++
		}
		rowPtr[n+k+1] = hi - lo + 1
		nb += hi - lo
	}
	for i := 0; i < dim; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	colIdx := make([]int, rowPtr[dim])
	f.kkt = &linalg.SparseMatrix{Rows: dim, Cols: dim, RowPtr: rowPtr, ColIdx: colIdx, Val: make([]float64, len(colIdx))}
	f.diag = make([]int, dim)
	f.hDiag = make([]int, n)
	f.hDst = make([]int, h.NNZ())
	next := make([]int, n) // fill cursor of the Bᵀ part of row i
	for i := 0; i < n; i++ {
		pos := rowPtr[i]
		f.diag[i], f.hDiag[i] = -1, -1
		for t := h.RowPtr[i]; t < h.RowPtr[i+1]; t++ {
			j := h.ColIdx[t]
			if j > i && f.diag[i] < 0 {
				colIdx[pos], f.diag[i] = i, pos
				pos++
			}
			if j == i {
				f.diag[i], f.hDiag[i] = pos, t
			}
			colIdx[pos], f.hDst[t] = j, pos
			pos++
		}
		if f.diag[i] < 0 {
			colIdx[pos], f.diag[i] = i, pos
			pos++
		}
		next[i] = pos
	}
	// Split rows: the row's columns, then its diagonal, mirrored into the
	// upper block.
	f.dstU = make([]int, 0, nb)
	f.dstL = make([]int, 0, nb)
	f.bSrc = make([]int, 0, nb)
	for k, r := range sv.split {
		pos := rowPtr[n+k]
		for t := gs.RowPtr[r]; t < gs.RowPtr[r+1]; t++ {
			j := gs.ColIdx[t]
			colIdx[pos], colIdx[next[j]] = j, n+k
			f.dstL = append(f.dstL, pos)
			f.dstU = append(f.dstU, next[j])
			f.bSrc = append(f.bSrc, t)
			pos++
			next[j]++
		}
		colIdx[pos], f.diag[n+k] = n+k, pos
	}
	f.hii = linalg.NewVector(n)
	f.chol = newSparseChol(f.kkt, sym, backend, workers)
	f.bytes = f.footprint()
	return f
}

// footprint estimates the bytes held by the pipeline's dominant arrays: a
// value, an index and a scatter entry per stored entry of H_s and of the
// KKT matrix, and a value and an index per entry of the factor (its dense
// panels on the supernodal backend; the whole matrix for a factorization
// without a symbolic phase).
func (f *neFactor) footprint() int {
	m := f.ata.Result
	entries := m.NNZ()
	if f.kkt != nil {
		m = f.kkt
		entries += m.NNZ()
	}
	l := m.Rows * m.Rows
	if sym := f.chol.Symbolic(); sym != nil {
		l = sym.NNZL()
		if _, ok := f.chol.(*linalg.SupernodalCholesky); ok {
			l = sym.Supernodal().PanelStorage()
		}
	}
	return 24*entries + 16*l
}

// newSparseChol builds the numeric factorization workspace for m's pattern
// on the requested backend, bound to sym, m's symbolic analysis, or to a
// fresh analysis of m when sym is nil. It runs once per pipeline build,
// never per iteration. It is a variable only so tests can plug in a dense
// reference factorization as an oracle; nothing else assigns it.
var newSparseChol = func(m *linalg.SparseMatrix, sym *linalg.SymbolicFactor, backend Factorization, workers int) linalg.SparseLDLT {
	if sym == nil {
		sym = linalg.Analyze(m, nil)
	}
	if backend == FactorSupernodal {
		return sym.NewSupernodal(workers)
	}
	return sym.NewNumeric()
}

// fillKKT refreshes the KKT values for the current H, the split rows of
// gs (the current W⁻¹G) and the given static regularization: the H block is
// copied through the scatter map, the B blocks from gs, and the diagonal
// becomes H(i,i)+reg on the variable block and −1 on the split block.
//
//bbvet:hotpath
func (f *neFactor) fillKKT(gs *linalg.SparseMatrix, reg float64) {
	hv := f.ata.Result.Val
	kv := f.kkt.Val
	for t, d := range f.hDst {
		kv[d] = hv[t]
	}
	f.setDiag(reg)
	gv := gs.Val
	for t, src := range f.bSrc {
		v := gv[src]
		kv[f.dstL[t]] = v
		kv[f.dstU[t]] = v
	}
	for d := len(f.hDiag); d < len(f.diag); d++ {
		kv[f.diag[d]] = -1
	}
}

// setDiag writes H(i,i)+reg on the variable block of the KKT diagonal,
// leaving the split block's −1.
//
//bbvet:hotpath
func (f *neFactor) setDiag(reg float64) {
	hv, kv := f.ata.Result.Val, f.kkt.Val
	for i, t := range f.hDiag {
		var v float64
		if t >= 0 {
			v = hv[t]
		}
		kv[f.diag[i]] = v + reg
	}
}

// unshift takes the reg shift fillKKT put on the diagonal back out once the
// factorization holds it, leaving the unregularized KKT matrix for
// SolveRefined to refine against — the values fillKKT(gs, 0) writes, at
// O(n) instead of a refill.
//
//bbvet:hotpath
func (f *neFactor) unshift() { f.setDiag(0) }

// hMax returns the largest entry of the full H = H_s + BᵀB, the scale of
// the static regularization. H is positive semidefinite, so that entry is
// on its diagonal, H(i,i) = H_s(i,i) + Σ_r b_ri²: O(n + nnz(B)), where
// forming BᵀB would cost the O(w²) per row the split avoids. Without split
// rows it is H_s's own largest entry.
//
//bbvet:hotpath
func (f *neFactor) hMax(gs *linalg.SparseMatrix) float64 {
	h := f.ata.Result
	if f.nd == 0 {
		return h.NormInf()
	}
	d := f.hii
	for i, t := range f.hDiag {
		d[i] = 0
		if t >= 0 {
			d[i] = h.Val[t]
		}
	}
	for _, src := range f.bSrc {
		v := gs.Val[src]
		d[gs.ColIdx[src]] += v * v
	}
	return linalg.NormInf(d)
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
			sv.ne = newNEFactor(sv, nil, backend, workers)
		}
	}
	return sv.ne
}
