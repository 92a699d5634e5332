package socp

import (
	"slices"

	"repro/internal/cone"
	"repro/internal/linalg"
)

// sparseView holds the iteration-invariant sparse structure of one solve's
// constraint matrix: G in CSR form for the mat-vecs of the main loop, and a
// value template gs for the NT-scaled matrix W⁻¹G. The symbolic
// pattern of gs is fixed across all IPM iterations of a solve — only the
// scaling W changes — so the normal-equations assembly H = (W⁻¹G)ᵀ(W⁻¹G)
// reuses it every iteration and touches structural nonzeros only:
//
//   - orthant rows of W⁻¹G keep G's row pattern (W is diagonal there);
//   - the rows of each second-order-cone block share the union of the
//     block's row patterns, because the block scaling P(v⁻¹) mixes rows only
//     within the block.
//
// Most SRDF-derived rows touch 2–4 variables, but the coupling rows of a
// processor wheel (9) and a memory (10) each sum over every task or buffer
// they serve, hundreds of variables on large instances. A row of width w
// adds a dense w×w block to H, so the rows longer than maxNormalEqRow are
// split off (split): H covers the short rows only, and the long ones enter
// the factorization as extra rows of the quasi-definite KKT matrix (see
// neFactor), where they cost O(w) instead of O(w²).
type sparseView struct {
	g  *linalg.SparseMatrix // exact pattern of G
	gs *linalg.SparseMatrix // W⁻¹G template; values rewritten by fillScaled

	dims cone.Dims
	socs []socBlockView

	// split lists, ascending, the rows of gs longer than maxNormalEqRow;
	// splitMask[r] flags them. The split depends on gs's pattern alone,
	// which the pattern cache keys on.
	split     []int
	splitMask []bool

	colBuf, outBuf linalg.Vector // gather/scatter scratch, len = max block size

	// ne is the sparse factorization pipeline (normal equations or KKT
	// matrix), built lazily on the first sparse-backend factor call because its
	// symbolic analysis only depends on the fixed gs pattern.
	ne *neFactor
}

// maxNormalEqRow is the longest row of W⁻¹G whose outer product is
// assembled into H. SRDF edge and budget rows have at most 4 entries; the
// processor and memory coupling rows have one per task or buffer. It is a
// variable only so tests can turn the split off as an oracle; nothing else
// assigns it.
var maxNormalEqRow = 8

// socBlockView is the fixed structural data of one SOC block of G.
type socBlockView struct {
	off  int   // first row of the block in G
	q    int   // block size
	cols []int // sorted union of the block rows' column patterns
	// gv is the q×len(cols) row-major dense copy of G's block entries:
	// gv[r*len(cols)+k] = G[off+r][cols[k]].
	gv []float64
}

// newSparseView builds the sparse structure for a validated problem
// carrying GSparse, which the view uses directly.
func newSparseView(p *Problem) *sparseView {
	sv := &sparseView{dims: p.Dims, g: p.GSparse, socs: make([]socBlockView, 0, len(p.Dims.SOC))}
	n := sv.g.Cols
	pattern := make([][]int, sv.g.Rows)
	for i := 0; i < p.Dims.NonNeg; i++ {
		lo, hi := sv.g.RowPtr[i], sv.g.RowPtr[i+1]
		pattern[i] = sv.g.ColIdx[lo:hi] // a view; NewSparseFromPattern copies it below
	}
	off := p.Dims.NonNeg
	maxQ := 0
	for _, q := range p.Dims.SOC {
		if q > maxQ {
			maxQ = q
		}
		// Union of the block rows' patterns: the block's column indices,
		// sorted and compacted.
		lo, hi := sv.g.RowPtr[off], sv.g.RowPtr[off+q]
		cols := slices.Clone(sv.g.ColIdx[lo:hi])
		slices.Sort(cols)
		cols = slices.Compact(cols)
		blk := socBlockView{off: off, q: q, cols: cols, gv: make([]float64, q*len(cols))}
		for r := 0; r < q; r++ {
			for k, j := range cols {
				blk.gv[r*len(cols)+k] = sv.g.At(off+r, j)
			}
		}
		sv.socs = append(sv.socs, blk)
		for r := off; r < off+q; r++ {
			pattern[r] = cols
		}
		off += q
	}
	sv.gs = linalg.NewSparseFromPattern(sv.g.Rows, n, pattern)
	for r := 0; r < sv.gs.Rows; r++ {
		if sv.gs.RowPtr[r+1]-sv.gs.RowPtr[r] > maxNormalEqRow {
			if sv.splitMask == nil {
				sv.splitMask = make([]bool, sv.gs.Rows)
			}
			sv.splitMask[r] = true
			sv.split = append(sv.split, r)
		}
	}
	sv.colBuf = linalg.NewVector(maxQ)
	sv.outBuf = linalg.NewVector(maxQ)
	return sv
}

// fillScaled overwrites the values of gs with W⁻¹G for the given NT scaling
// (W = I when w is nil). The symbolic pattern never changes.
func (sv *sparseView) fillScaled(w *cone.Scaling) {
	// Orthant rows: gs shares g's pattern there, so the value ranges line up
	// slot for slot.
	for i := 0; i < sv.dims.NonNeg; i++ {
		inv := 1.0
		if w != nil {
			inv = w.OrthantInv(i)
		}
		lo, hi := sv.g.RowPtr[i], sv.g.RowPtr[i+1]
		dst := sv.gs.Val[sv.gs.RowPtr[i]:sv.gs.RowPtr[i+1]]
		for k := lo; k < hi; k++ {
			dst[k-lo] = inv * sv.g.Val[k]
		}
	}
	// SOC blocks: apply P(v⁻¹) column by column over the union pattern.
	for bi := range sv.socs {
		blk := &sv.socs[bi]
		nc := len(blk.cols)
		col := sv.colBuf[:blk.q]
		out := sv.outBuf[:blk.q]
		for k := 0; k < nc; k++ {
			for r := 0; r < blk.q; r++ {
				col[r] = blk.gv[r*nc+k]
			}
			if w != nil {
				w.ApplyInvSOC(bi, out, col)
			} else {
				copy(out, col)
			}
			for r := 0; r < blk.q; r++ {
				sv.gs.Val[sv.gs.RowPtr[blk.off+r]+k] = out[r]
			}
		}
	}
}
