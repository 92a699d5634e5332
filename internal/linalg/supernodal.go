package linalg

// Supernodal symbolic analysis: the column partition and blocked storage
// layout of the supernodal LDLᵀ backend. A supernode is a range of
// consecutive pivot columns of L whose below-diagonal patterns nest, so the
// columns can be stored as one dense row-major panel and factorized with
// dense (BLAS-3 style) kernels instead of one sparse column at a time.
//
// The analysis runs on top of an existing SymbolicFactor — the elimination
// tree and column counts computed by Analyze — in three steps:
//
//  1. the explicit row pattern of every column of L (one elimination-tree
//     sweep, O(nnz(L)));
//  2. fundamental supernodes: column j+1 joins column j's supernode iff
//     parent[j] = j+1 and |pattern(j)| = |pattern(j+1)| + 1, i.e. the
//     patterns are identical below the diagonal;
//  3. relaxed amalgamation: adjacent supernodes merge when storing their
//     union pattern as one panel introduces at most a small budget of
//     explicit zeros, trading a few wasted multiplies for wider panels
//     (wider panels mean fewer, larger dense updates).
//
// Everything here depends only on the sparsity pattern, so one
// SupernodalSymbolic is shared read-only by any number of numeric
// workspaces, exactly like the SymbolicFactor it extends.

const (
	// maxSupernodeWidth caps panel width. Wider panels amortize better but
	// grow the per-worker update buffer (width² floats) and the explicit-zero
	// waste of amalgamation; 32 keeps the buffer inside L1.
	maxSupernodeWidth = 16
	// relaxFillBase and relaxFillShift set the amalgamation budget: two
	// adjacent supernodes merge when the panel union introduces at most
	// relaxFillBase + (stored(a)+stored(b))>>relaxFillShift explicit zeros
	// (an absolute floor plus 12.5% of the current storage).
	relaxFillBase  = 8
	relaxFillShift = 4
)

// snUpdate is one blocked outer-product contribution: descendant supernode d
// updates a target supernode with the rows rows[lo:hi] of d falling inside
// the target's column range (and every row of d from lo on, for the
// below-block part). lo and hi index the global rows array.
type snUpdate struct {
	d      int32
	lo, hi int32
}

// SupernodalSymbolic is the immutable blocked layout of L for one analyzed
// pattern: the supernode partition, per-panel row lists, flat value offsets,
// the assembly scatter plan, and the update dependency DAG. All fields are
// written once by newSupernodalSymbolic and only read afterwards.
type SupernodalSymbolic struct {
	sf *SymbolicFactor
	ns int // number of supernodes

	colPtr []int32 // len ns+1; supernode s covers permuted columns [colPtr[s], colPtr[s+1])
	snOf   []int32 // len n; owner supernode of each permuted column

	// rows[rowPtr[s]:rowPtr[s+1]] lists panel s's permuted row indices in
	// ascending order; the first width(s) entries are the supernode's own
	// columns (the dense diagonal block).
	rowPtr []int32
	rows   []int32

	// valPtr[s] is the offset of panel s in the flat value storage, where it
	// occupies nrows(s)×width(s) float64s in row-major order. valPtr[ns] is
	// the total storage.
	valPtr []int

	// Assembly plan: analyzed entry aEnt[e] (an index into the
	// SymbolicFactor's ui/usrc arrays) lands at panel-relative position
	// aDst[e] of its owner's panel. Entries are grouped per supernode by
	// asnPtr so each panel scatters only its own values.
	asnPtr []int32
	aEnt   []int32
	aDst   []int

	// Update plan: upds[updPtr[s]:updPtr[s+1]] are the contributions into
	// supernode s, in ascending descendant order (the deterministic reduction
	// order the parallel scheduler preserves). tgts[tgtPtr[d]:tgtPtr[d+1]]
	// is the transpose — the targets each descendant must notify.
	updPtr []int32
	upds   []snUpdate
	tgtPtr []int32
	tgts   []int32

	// indeg[s] is the number of distinct descendants updating s (the
	// scheduler's dependency count); leaves lists the supernodes with no
	// incoming updates, ascending.
	indeg  []int32
	leaves []int32

	maxWidth int // widest panel
	maxRows  int // tallest panel
}

// Supernodal returns the supernodal layout of the analyzed pattern,
// computing it on first use. The result is immutable and shared; concurrent
// callers synchronize through the once.
func (s *SymbolicFactor) Supernodal() *SupernodalSymbolic {
	s.snOnce.Do(func() { s.sn = newSupernodalSymbolic(s) })
	return s.sn
}

// PanelStorage returns the total flat panel storage in float64s — the
// blocked analogue of NNZL, including the explicit zeros amalgamation and
// the rectangular panel shape introduce.
func (ss *SupernodalSymbolic) PanelStorage() int { return ss.valPtr[ss.ns] }

func newSupernodalSymbolic(sf *SymbolicFactor) *SupernodalSymbolic {
	n := sf.n
	ss := &SupernodalSymbolic{sf: sf}

	// Explicit row patterns of L, per column ascending: replay the
	// elimination-tree walk of Analyze, appending k to every column of row
	// k's pattern.
	lnz := make([]int, n)
	li := make([]int32, sf.lp[n])
	flag := make([]int, n)
	for i := range flag {
		flag[i] = -1
	}
	for k := 0; k < n; k++ {
		flag[k] = k
		for p := sf.up[k]; p < sf.up[k+1]; p++ {
			for i := sf.ui[p]; flag[i] != k; i = sf.parent[i] {
				li[sf.lp[i]+lnz[i]] = int32(k)
				lnz[i]++
				flag[i] = k
			}
		}
	}

	// Fundamental supernodes: chains of columns with nested patterns.
	cc := func(j int) int { return sf.lp[j+1] - sf.lp[j] }
	var groups [][2]int // [c0, c1) column ranges
	for c0 := 0; c0 < n; {
		c1 := c0 + 1
		for c1 < n && c1-c0 < maxSupernodeWidth &&
			sf.parent[c1-1] == c1 && cc(c1-1) == cc(c1)+1 {
			c1++
		}
		groups = append(groups, [2]int{c0, c1})
		c0 = c1
	}

	// Panel row lists of the fundamental groups. Nestedness means the group's
	// rows are its first column's pattern plus the first column itself.
	rowsOf := make([][]int32, len(groups))
	for g, r := range groups {
		c0 := r[0]
		rows := make([]int32, 0, 1+cc(c0))
		rows = append(rows, int32(c0))
		rows = append(rows, li[sf.lp[c0]:sf.lp[c0+1]]...)
		rowsOf[g] = rows
	}

	// Relaxed amalgamation: one left-to-right pass greedily merging each
	// group into its left neighbor while the explicit-zero budget holds.
	// Merged rows are the sorted union; every own column is always a member,
	// and because column ranges stay contiguous the first width entries of
	// the union are exactly the own columns.
	merged := make([][2]int, 0, len(groups))
	mrows := make([][]int32, 0, len(groups))
	var union []int32
	for g := 0; g < len(groups); g++ {
		c0, c1 := groups[g][0], groups[g][1]
		rows := rowsOf[g]
		if len(merged) > 0 {
			lc := merged[len(merged)-1]
			lrows := mrows[len(mrows)-1]
			wm := c1 - lc[0]
			if wm <= maxSupernodeWidth {
				union = mergeSorted(union[:0], lrows, rows)
				storedA := len(lrows) * (lc[1] - lc[0])
				storedB := len(rows) * (c1 - c0)
				fill := len(union)*wm - storedA - storedB
				if fill <= relaxFillBase+((storedA+storedB)>>relaxFillShift) {
					merged[len(merged)-1][1] = c1
					mrows[len(mrows)-1] = append(lrows[:0], union...)
					continue
				}
			}
		}
		merged = append(merged, [2]int{c0, c1})
		mrows = append(mrows, rows)
	}

	ns := len(merged)
	ss.ns = ns
	ss.colPtr = make([]int32, ns+1)
	ss.snOf = make([]int32, n)
	ss.rowPtr = make([]int32, ns+1)
	ss.valPtr = make([]int, ns+1)
	total := 0
	for s := 0; s < ns; s++ {
		c0, c1 := merged[s][0], merged[s][1]
		ss.colPtr[s] = int32(c0)
		ss.colPtr[s+1] = int32(c1)
		for j := c0; j < c1; j++ {
			ss.snOf[j] = int32(s)
		}
		w := c1 - c0
		nr := len(mrows[s])
		ss.rowPtr[s+1] = ss.rowPtr[s] + int32(nr)
		ss.valPtr[s] = total
		total += nr * w
		if w > ss.maxWidth {
			ss.maxWidth = w
		}
		if nr > ss.maxRows {
			ss.maxRows = nr
		}
	}
	ss.valPtr[ns] = total
	ss.rows = make([]int32, ss.rowPtr[ns])
	for s := 0; s < ns; s++ {
		copy(ss.rows[ss.rowPtr[s]:ss.rowPtr[s+1]], mrows[s])
	}

	ss.buildAssemblyPlan()
	ss.buildUpdatePlan()
	return ss
}

// mergeSorted writes the sorted union of two ascending unique slices into
// dst (which must be empty) and returns it.
func mergeSorted(dst, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// buildAssemblyPlan groups the analyzed entries of the permuted
// upper-triangular view by owning supernode and precomputes each entry's
// flat panel destination, so numeric assembly is two indirections per entry
// with no searching.
func (ss *SupernodalSymbolic) buildAssemblyPlan() {
	sf := ss.sf
	n := sf.n
	nnz := sf.up[n]
	// Entry p of the view is pair (row k, col i) of the permuted lower
	// triangle with i = ui[p] and k the view column it sits under.
	aRow := make([]int32, nnz)
	counts := make([]int32, ss.ns+1)
	for k := 0; k < n; k++ {
		for p := sf.up[k]; p < sf.up[k+1]; p++ {
			aRow[p] = int32(k)
			counts[ss.snOf[sf.ui[p]]+1]++
		}
	}
	ss.asnPtr = counts
	for s := 0; s < ss.ns; s++ {
		ss.asnPtr[s+1] += ss.asnPtr[s]
	}
	ss.aEnt = make([]int32, nnz)
	ss.aDst = make([]int, nnz)
	next := make([]int32, ss.ns)
	copy(next, ss.asnPtr[:ss.ns])
	// pos[r] = local row index of r in the supernode currently being filled;
	// no clearing needed because every query hits a row of that supernode.
	pos := make([]int32, n)
	for p := 0; p < nnz; p++ {
		s := ss.snOf[sf.ui[p]]
		e := next[s]
		next[s] = e + 1
		ss.aEnt[e] = int32(p)
	}
	for s := 0; s < ss.ns; s++ {
		for idx := ss.rowPtr[s]; idx < ss.rowPtr[s+1]; idx++ {
			pos[ss.rows[idx]] = idx - ss.rowPtr[s]
		}
		c0 := int(ss.colPtr[s])
		w := int(ss.colPtr[s+1]) - c0
		for e := ss.asnPtr[s]; e < ss.asnPtr[s+1]; e++ {
			p := ss.aEnt[e]
			i := sf.ui[p]
			k := aRow[p]
			ss.aDst[e] = int(pos[k])*w + (i - c0)
		}
	}
}

// buildUpdatePlan derives the blocked update DAG from the panel row lists:
// every maximal run of a panel's below-diagonal rows owned by one ancestor
// supernode is one blocked contribution. Updates into a target are ordered
// by ascending descendant, which fixes the reduction order the parallel
// scheduler must (and does) preserve.
func (ss *SupernodalSymbolic) buildUpdatePlan() {
	counts := make([]int32, ss.ns+1)
	tcounts := make([]int32, ss.ns+1)
	for d := 0; d < ss.ns; d++ {
		w := ss.colPtr[d+1] - ss.colPtr[d]
		idx := ss.rowPtr[d] + w
		for idx < ss.rowPtr[d+1] {
			t := ss.snOf[ss.rows[idx]]
			j := idx + 1
			for j < ss.rowPtr[d+1] && ss.snOf[ss.rows[j]] == t {
				j++
			}
			counts[t+1]++
			tcounts[d+1]++
			idx = j
		}
	}
	ss.updPtr = counts
	ss.tgtPtr = tcounts
	for s := 0; s < ss.ns; s++ {
		ss.updPtr[s+1] += ss.updPtr[s]
		ss.tgtPtr[s+1] += ss.tgtPtr[s]
	}
	ss.upds = make([]snUpdate, ss.updPtr[ss.ns])
	ss.tgts = make([]int32, ss.tgtPtr[ss.ns])
	next := make([]int32, ss.ns)
	copy(next, ss.updPtr[:ss.ns])
	tnext := make([]int32, ss.ns)
	copy(tnext, ss.tgtPtr[:ss.ns])
	ss.indeg = make([]int32, ss.ns)
	for d := 0; d < ss.ns; d++ {
		w := ss.colPtr[d+1] - ss.colPtr[d]
		idx := ss.rowPtr[d] + w
		for idx < ss.rowPtr[d+1] {
			t := ss.snOf[ss.rows[idx]]
			j := idx + 1
			for j < ss.rowPtr[d+1] && ss.snOf[ss.rows[j]] == t {
				j++
			}
			e := next[t]
			next[t] = e + 1
			ss.upds[e] = snUpdate{d: int32(d), lo: idx, hi: j}
			te := tnext[d]
			tnext[d] = te + 1
			ss.tgts[te] = t
			ss.indeg[t]++
			idx = j
		}
	}
	for s := 0; s < ss.ns; s++ {
		if ss.indeg[s] == 0 {
			ss.leaves = append(ss.leaves, int32(s))
		}
	}
}
