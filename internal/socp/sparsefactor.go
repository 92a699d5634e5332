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
//	[ H_s+reg·I  Aᵀ      Bᵀ ] [x]   [r ]
//	[ A          −reg·I  0  ] [y] = [by]
//	[ B          0       −I ] [u]   [0 ]
//
// Eliminating u = Bx gives back (H_s + BᵀB)x + Aᵀy = r with H_s + BᵀB = H,
// so the factorization solves the same system while a row of width w adds
// w entries to the matrix instead of a dense w×w block.
type neFactor struct {
	ata  *linalg.SparseAtA // H_s on its fixed pattern
	chol linalg.SparseLDLT // factor of H (kkt == nil) or of the KKT matrix

	// kkt is the quasi-definite KKT matrix above on a fixed pattern, nil
	// when there are neither equality rows nor split rows (then H itself is
	// factored). The A blocks are written at construction (and rewritten by
	// setStaticA when a pooled pipeline moves to a new problem); fillKKT
	// refreshes the H block, the B blocks and the diagonal.
	kkt   *linalg.SparseMatrix
	hDst  []int // kkt.Val position of each H entry
	diag  []int // kkt.Val position of each diagonal entry, len n+pe+nd
	hDiag []int // H.Val position of diagonal entry i < n, −1 if not in H
	// dstU and dstL are the kkt.Val positions of entry t of the rows below
	// H — the A entries, then the B entries — in the upper (Aᵀ, Bᵀ) and
	// lower (A, B) blocks, so the refills write without index search. bSrc
	// is the W⁻¹G value position of B entry t.
	dstU, dstL []int
	bSrc       []int
	pe         int // equality rows
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
// fixed pattern. a is the problem's equality-constraint matrix in CSR form
// (nil without equalities). A non-nil sym is the symbolic analysis
// (ordering, etree, column pattern) of the factored matrix, shared with
// other pipelines of the same pattern; nil analyzes locally. backend must
// be a resolved factorization choice — FactorSparse or FactorSupernodal,
// never FactorAuto — and workers bounds the supernodal worker pool.
func newNEFactor(sv *sparseView, a *linalg.SparseMatrix, sym *linalg.SymbolicFactor, backend Factorization, workers int) *neFactor {
	f := &neFactor{ata: linalg.NewSparseAtASkip(sv.gs, sv.splitMask)}
	h := f.ata.Result
	if a == nil && len(sv.split) == 0 {
		f.chol = newSparseChol(h, sym, backend, workers)
		f.bytes = f.footprint()
		return f
	}
	gs := sv.gs
	n := h.Rows
	if a != nil {
		f.pe = a.Rows
	}
	f.nd = len(sv.split)
	pe, dim := f.pe, n+f.pe+f.nd
	// row returns the matrix and entry range of row k below H: equality
	// row k of a, or split row k−pe of gs.
	row := func(k int) (m *linalg.SparseMatrix, lo, hi int) {
		if k < pe {
			return a, a.RowPtr[k], a.RowPtr[k+1]
		}
		r := sv.split[k-pe]
		return gs, gs.RowPtr[r], gs.RowPtr[r+1]
	}
	// Fixed pattern of the KKT matrix, with an explicit diagonal everywhere
	// so the regularization always has a slot. One counting pass sizes the
	// rows; the fill pass then writes every column index and records every
	// scatter position into flat slices. Row i < n holds H_s row i
	// (diagonal inserted), then its Aᵀ and Bᵀ columns, which ascend because
	// the rows below H are visited in order.
	rowPtr := make([]int, dim+1)
	for i := 0; i < n; i++ {
		rowPtr[i+1] = h.RowPtr[i+1] - h.RowPtr[i]
		if h.Index(i, i) < 0 {
			rowPtr[i+1]++
		}
	}
	nx, nb := 0, 0 // entries of the rows below H, of B
	for k := 0; k < pe+f.nd; k++ {
		m, lo, hi := row(k)
		for t := lo; t < hi; t++ {
			rowPtr[m.ColIdx[t]+1]++
		}
		rowPtr[n+k+1] = hi - lo + 1
		nx += hi - lo
		if k >= pe {
			nb += hi - lo
		}
	}
	for i := 0; i < dim; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	colIdx := make([]int, rowPtr[dim])
	f.kkt = &linalg.SparseMatrix{Rows: dim, Cols: dim, RowPtr: rowPtr, ColIdx: colIdx, Val: make([]float64, len(colIdx))}
	f.diag = make([]int, dim)
	f.hDiag = make([]int, n)
	f.hDst = make([]int, h.NNZ())
	next := make([]int, n) // fill cursor of the Aᵀ/Bᵀ part of row i
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
	// Rows below H: the row's columns, then its diagonal, mirrored into the
	// upper blocks.
	f.dstU = make([]int, 0, nx)
	f.dstL = make([]int, 0, nx)
	f.bSrc = make([]int, 0, nb)
	for k := 0; k < pe+f.nd; k++ {
		m, lo, hi := row(k)
		pos := rowPtr[n+k]
		for t := lo; t < hi; t++ {
			j := m.ColIdx[t]
			colIdx[pos], colIdx[next[j]] = j, n+k
			f.dstL = append(f.dstL, pos)
			f.dstU = append(f.dstU, next[j])
			if k >= pe {
				f.bSrc = append(f.bSrc, t)
			}
			pos++
			next[j]++
		}
		colIdx[pos], f.diag[n+k] = n+k, pos
	}
	if f.nd > 0 {
		f.hii = linalg.NewVector(n)
	}
	f.setStaticA(a)
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

// setStaticA rewrites the equality blocks of the KKT matrix with the
// values of a, which must carry the analyzed pattern. No-op without
// equalities.
//
//bbvet:hotpath
func (f *neFactor) setStaticA(a *linalg.SparseMatrix) {
	if f.pe == 0 {
		return
	}
	kv := f.kkt.Val
	for t, v := range a.Val {
		kv[f.dstL[t]] = v
		kv[f.dstU[t]] = v
	}
}

// fillKKT refreshes the KKT values for the current H, the split rows of
// gs (the current W⁻¹G) and the given static regularization: the H block is
// copied through the scatter map, the B blocks from gs, and the diagonal
// becomes H(i,i)+reg on the variable block, −reg on the equality block and
// −1 on the split block.
//
//bbvet:hotpath
func (f *neFactor) fillKKT(gs *linalg.SparseMatrix, reg float64) {
	hv := f.ata.Result.Val
	kv := f.kkt.Val
	for t, d := range f.hDst {
		kv[d] = hv[t]
	}
	f.setDiag(reg)
	n := f.ata.Result.Rows
	gv := gs.Val
	dstL, dstU := f.dstL[len(f.dstL)-len(f.bSrc):], f.dstU[len(f.dstU)-len(f.bSrc):]
	for t, src := range f.bSrc {
		v := gv[src]
		kv[dstL[t]] = v
		kv[dstU[t]] = v
	}
	for d := n + f.pe; d < len(f.diag); d++ {
		kv[f.diag[d]] = -1
	}
}

// setDiag writes H(i,i)+reg on the variable block of the KKT diagonal and
// −reg on the equality block, leaving the split block's −1.
//
//bbvet:hotpath
func (f *neFactor) setDiag(reg float64) {
	hv, kv := f.ata.Result.Val, f.kkt.Val
	n := len(f.hDiag)
	for i, t := range f.hDiag {
		var v float64
		if t >= 0 {
			v = hv[t]
		}
		kv[f.diag[i]] = v + reg
	}
	for e := 0; e < f.pe; e++ {
		kv[f.diag[n+e]] = -reg
	}
}

// unshift takes the ±reg shift fillKKT put on the diagonal back out once
// the factorization holds it, leaving the unregularized KKT matrix for
// SolveRefined to refine against — the values fillKKT(gs, 0) writes, at
// O(n+pe) instead of a refill.
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
			sv.ne = newNEFactor(sv, sv.a, nil, backend, workers)
		}
	}
	return sv.ne
}
