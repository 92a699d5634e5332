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
//
// Everything but the values of g, gs and the block templates depends on
// G's pattern and the cone dims alone, so a view serves every solve of its
// pattern: load takes in the values of the next problem.
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
	// gv[r*len(cols)+k] = G[off+r][cols[k]]. load rewrites it.
	gv []float64
}

// newSparseView builds the sparse structure of g, a constraint matrix of
// the cone dims. It reads g's pattern only; call load once g holds the
// values to solve with. The view keeps g and dims, and reads g's values at
// every load.
func newSparseView(g *linalg.SparseMatrix, dims cone.Dims) *sparseView {
	sv := &sparseView{dims: dims, g: g, socs: make([]socBlockView, 0, len(dims.SOC))}
	n := sv.g.Cols
	pattern := make([][]int, sv.g.Rows)
	for i := 0; i < dims.NonNeg; i++ {
		lo, hi := sv.g.RowPtr[i], sv.g.RowPtr[i+1]
		pattern[i] = sv.g.ColIdx[lo:hi] // a view; NewSparseFromPattern copies it below
	}
	off := dims.NonNeg
	maxQ := 0
	for _, q := range dims.SOC {
		if q > maxQ {
			maxQ = q
		}
		// Union of the block rows' patterns: the block's column indices,
		// sorted and compacted.
		lo, hi := sv.g.RowPtr[off], sv.g.RowPtr[off+q]
		cols := slices.Clone(sv.g.ColIdx[lo:hi])
		slices.Sort(cols)
		cols = slices.Compact(cols)
		sv.socs = append(sv.socs, socBlockView{off: off, q: q, cols: cols, gv: make([]float64, q*len(cols))})
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

// load copies g's current SOC block entries into the block templates,
// zero where a block row has no entry in a column of the block's union.
// Rows of a CSR matrix have strictly increasing columns, so every entry
// has exactly one slot.
func (sv *sparseView) load() {
	g := sv.g
	for bi := range sv.socs {
		blk := &sv.socs[bi]
		clear(blk.gv)
		nc := len(blk.cols)
		for r := 0; r < blk.q; r++ {
			for t := g.RowPtr[blk.off+r]; t < g.RowPtr[blk.off+r+1]; t++ {
				k, _ := slices.BinarySearch(blk.cols, g.ColIdx[t])
				blk.gv[r*nc+k] = g.Val[t]
			}
		}
	}
}

// footprint estimates the bytes the view holds: the W⁻¹G template's values
// and indices, the block templates and the split mask.
func (sv *sparseView) footprint() int {
	b := 16*sv.gs.NNZ() + 8*len(sv.gs.RowPtr) + len(sv.splitMask) + 8*len(sv.split)
	for _, blk := range sv.socs {
		b += 8*len(blk.cols) + 8*len(blk.gv)
	}
	return b
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
