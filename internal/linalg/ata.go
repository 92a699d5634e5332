package linalg

import "sort"

// SparseAtA recomputes H = AᵀA in sparse form for a matrix A whose sparsity
// pattern is fixed while its values change — the normal-equations assembly
// of the interior-point hot loop, where A is the NT-scaled constraint matrix
// W⁻¹G with an iteration-invariant pattern.
//
// The symbolic work — H's pattern and a flat scatter plan mapping every
// within-row entry pair of A to its target positions in H — is done once at
// construction. Compute then refills the values in O(Σᵢ nnz(rowᵢ)²) with no
// allocations and no index searches.
//
// The plan is split by target kind: a within-row pair hits a diagonal slot
// of H exactly when it pairs an entry with itself (columns are distinct
// within a CSR row), so the squared terms and the mirrored off-diagonal
// terms stream through separate branch-free loops. Every H slot draws all
// its contributions from one loop in the same row-ascending order the
// unsplit plan used, so the split changes no floating-point result. Plan
// indices are int32: positions in Val arrays far below 2³¹, stored half as
// wide to halve the plan's memory traffic through the hot loop.
type SparseAtA struct {
	// Result is the Cols×Cols product AᵀA in full symmetric CSR form. Its
	// pattern is fixed at construction; Compute rewrites the values.
	Result *SparseMatrix

	// Diagonal plan: contribution t adds Val[dka[t]]² of A at position
	// ddst[t] of Result.Val.
	dka  []int32
	ddst []int32
	// Off-diagonal plan: contribution t adds Val[ka[t]]·Val[kb[t]] at
	// position dst[t] and mirrors it at mir[t] (always a distinct slot).
	ka, kb []int32
	dst    []int32
	mir    []int32
	nnzA   int
}

// NewSparseAtA analyzes the pattern of a and builds the scatter plan. Every
// matrix later passed to Compute must carry this exact pattern.
func NewSparseAtA(a *SparseMatrix) *SparseAtA { return NewSparseAtASkip(a, nil) }

// NewSparseAtASkip is NewSparseAtA with a row mask: rows r with skip[r]
// set are left out of the product, so Result = Σ_{r not skipped} a_rᵀa_r
// on the pattern of the kept rows only. Compute still takes the full a. A
// nil skip keeps every row.
func NewSparseAtASkip(a *SparseMatrix, skip []bool) *SparseAtA {
	kept := func(r int) bool { return skip == nil || !skip[r] }
	n := a.Cols
	// CSC-style row lists: which rows of A touch each column.
	colPtr := make([]int, n+1)
	for i := 0; i < a.Rows; i++ {
		if !kept(i) {
			continue
		}
		for _, j := range a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]] {
			colPtr[j+1]++
		}
	}
	for j := 0; j < n; j++ {
		colPtr[j+1] += colPtr[j]
	}
	colRows := make([]int, colPtr[n])
	next := append([]int(nil), colPtr[:n]...)
	for i := 0; i < a.Rows; i++ {
		if !kept(i) {
			continue
		}
		for t := a.RowPtr[i]; t < a.RowPtr[i+1]; t++ {
			j := a.ColIdx[t]
			colRows[next[j]] = i
			next[j]++
		}
	}
	// Pattern of H: row j is the union of the patterns of A's rows that
	// contain column j. A counting pass sizes the rows so the whole pattern
	// lives in one flat allocation instead of per-row append chains.
	mark := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	rowLen := make([]int, n)
	total := 0
	for j := 0; j < n; j++ {
		for t := colPtr[j]; t < colPtr[j+1]; t++ {
			r := colRows[t]
			for u := a.RowPtr[r]; u < a.RowPtr[r+1]; u++ {
				if cc := a.ColIdx[u]; mark[cc] != j {
					mark[cc] = j
					rowLen[j]++
				}
			}
		}
		total += rowLen[j]
	}
	for i := range mark {
		mark[i] = -1
	}
	flat := make([]int, total)
	pattern := make([][]int, n)
	pos := 0
	for j := 0; j < n; j++ {
		cols := flat[pos : pos : pos+rowLen[j]]
		for t := colPtr[j]; t < colPtr[j+1]; t++ {
			r := colRows[t]
			for u := a.RowPtr[r]; u < a.RowPtr[r+1]; u++ {
				if cc := a.ColIdx[u]; mark[cc] != j {
					mark[cc] = j
					cols = append(cols, cc)
				}
			}
		}
		sort.Ints(cols)
		pattern[j] = cols
		pos += rowLen[j]
	}
	p := &SparseAtA{Result: NewSparseFromPattern(n, n, pattern), nnzA: a.NNZ()}
	// One plan entry per unordered within-row pair: the x == z pairs feed
	// the diagonal plan, the x < z pairs the mirrored off-diagonal one.
	offPlan := 0
	for r := 0; r < a.Rows; r++ {
		if kept(r) {
			w := a.RowPtr[r+1] - a.RowPtr[r]
			offPlan += w * (w - 1) / 2
		}
	}
	p.dka = make([]int32, 0, colPtr[n])
	p.ddst = make([]int32, 0, colPtr[n])
	p.ka = make([]int32, 0, offPlan)
	p.kb = make([]int32, 0, offPlan)
	p.dst = make([]int32, 0, offPlan)
	p.mir = make([]int32, 0, offPlan)
	for r := 0; r < a.Rows; r++ {
		if !kept(r) {
			continue
		}
		lo, hi := a.RowPtr[r], a.RowPtr[r+1]
		for x := lo; x < hi; x++ {
			i := a.ColIdx[x]
			p.dka = append(p.dka, int32(x))
			p.ddst = append(p.ddst, int32(p.Result.Index(i, i)))
			for z := x + 1; z < hi; z++ {
				j := a.ColIdx[z]
				p.ka = append(p.ka, int32(x))
				p.kb = append(p.kb, int32(z))
				p.dst = append(p.dst, int32(p.Result.Index(i, j)))
				p.mir = append(p.mir, int32(p.Result.Index(j, i)))
			}
		}
	}
	return p
}

// Compute rewrites Result's values as AᵀA for the current values of a,
// which must have the pattern given at construction.
func (p *SparseAtA) Compute(a *SparseMatrix) {
	if a.NNZ() != p.nnzA {
		panic("linalg: SparseAtA.Compute pattern differs from the analyzed one")
	}
	val := p.Result.Val
	for i := range val {
		val[i] = 0
	}
	av := a.Val
	for t, d := range p.ddst {
		v := av[p.dka[t]]
		val[d] += v * v
	}
	for t, d := range p.dst {
		v := av[p.ka[t]] * av[p.kb[t]]
		val[d] += v
		val[p.mir[t]] += v
	}
}
