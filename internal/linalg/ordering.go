package linalg

// AMDOrder computes a fill-reducing elimination ordering for the symmetric
// sparsity pattern of a: perm[k] is the original index of the k-th pivot.
//
// The algorithm is a quotient-graph minimum-degree heuristic of the
// approximate-minimum-degree (AMD) family: eliminated pivots become
// *elements* (cliques represented by their member list instead of explicit
// fill edges), elements adjacent to a pivot are absorbed into the new one,
// and node degrees are maintained as the cheap upper bound
//
//	d(i) ≈ |plain neighbors| + Σ_{e ∋ i} (|members(e)| − 1),
//
// which overcounts shared members but never undercounts the true degree.
// Plain-neighbor lists are pruned of nodes covered by a freshly created
// element, which keeps the quotient graph within O(nnz) storage instead of
// materializing fill.
//
// The alive nodes wait in an indexed binary min-heap keyed by (degree,
// index), so each pivot is found in O(log n) instead of by a scan of every
// node. Each node's plain neighbors and adjacent elements share one segment
// of a flat workspace sized by its initial adjacency: a member of a new
// element always loses the pivot or an absorbed element, so its list never
// outgrows the segment. Element member lists live in a second flat buffer
// that is compacted over absorbed elements before it grows.
//
// The pattern of a ∪ aᵀ is used and the diagonal is ignored, so a does not
// have to be structurally symmetric. The returned ordering is deterministic:
// ties are broken toward the lowest node index.
func AMDOrder(a *SparseMatrix) []int {
	if a.Rows != a.Cols {
		panic("linalg: AMDOrder needs a square matrix")
	}
	n := a.Rows
	// Symmetrized adjacency without the diagonal: node i's segment is
	// iw[head[i]:head[i+1]], filled from the front.
	head := make([]int, n+1)
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if j := a.ColIdx[k]; j != i {
				head[i+1]++
				head[j+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		head[i+1] += head[i]
	}
	iw := make([]int, head[n])
	nv := make([]int, n) // plain neighbors, iw[head[i]:head[i]+nv[i]]
	ne := make([]int, n) // adjacent elements, the ne[i] entries after them
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if j := a.ColIdx[k]; j != i {
				iw[head[i]+nv[i]] = j
				nv[i]++
				iw[head[j]+nv[j]] = i
				nv[j]++
			}
		}
	}
	// Deduplicate each segment with mark stamps 1..n; pivot stamps follow.
	mark := make([]int, n)
	degree := make([]int, n)
	for i := 0; i < n; i++ {
		seg := iw[head[i] : head[i]+nv[i]]
		w := 0
		for _, u := range seg {
			if mark[u] != i+1 {
				mark[u] = i + 1
				seg[w] = u
				w++
			}
		}
		nv[i], degree[i] = w, w
	}
	stamp := n

	h := newDegreeHeap(degree)
	perm := make([]int, 0, n)
	// Element p's members are ebuf[estart[p]:estart[p]+elen[p]]; elements
	// are stored in elimination order. The member lists sum to nnz(L) over
	// the run, but the live ones stay near n entries: room for n plus a
	// quarter of the adjacency takes one compaction and no regrowth on the
	// benchmark's KKT patterns (EXPERIMENTS.md §P16).
	ebuf := make([]int, 0, n+len(iw)/4)
	estart := make([]int, n)
	elen := make([]int, n)
	elemAlive := make([]bool, n)
	for len(perm) < n {
		// Pivot: the alive node with minimum approximate degree.
		p := h.pop()
		lo := head[p]
		adj, elems := iw[lo:lo+nv[p]], iw[lo+nv[p]:lo+nv[p]+ne[p]]
		need := len(adj)
		for _, e := range elems {
			need += elen[e]
		}
		if cap(ebuf)-len(ebuf) < need {
			ebuf = compactElements(ebuf, perm, estart, elen, elemAlive, need)
		}
		// Member list of the new element: alive plain neighbors plus the
		// members of every adjacent element (which are thereby absorbed).
		// A node is alive while it is in the heap (h.pos[u] ≥ 0).
		stamp++
		mark[p] = stamp
		start := len(ebuf)
		for _, u := range adj {
			if h.pos[u] >= 0 && mark[u] != stamp {
				mark[u] = stamp
				ebuf = append(ebuf, u)
			}
		}
		for _, e := range elems {
			for _, u := range ebuf[estart[e] : estart[e]+elen[e]] {
				if h.pos[u] >= 0 && mark[u] != stamp {
					mark[u] = stamp
					ebuf = append(ebuf, u)
				}
			}
			elemAlive[e] = false
		}
		perm = append(perm, p)
		estart[p], elen[p] = start, len(ebuf)-start
		elemAlive[p] = true
		// Update every member: prune neighbors now covered by the new
		// element, drop absorbed elements, recompute the degree bound.
		for _, i := range ebuf[start:] {
			seg := iw[head[i]:head[i+1]]
			w := 0
			for _, u := range seg[:nv[i]] {
				if h.pos[u] >= 0 && mark[u] != stamp {
					seg[w] = u
					w++
				}
			}
			d := w
			nvi := w
			for _, e := range seg[nv[i] : nv[i]+ne[i]] {
				if elemAlive[e] {
					seg[w] = e
					w++
					d += elen[e] - 1
				}
			}
			seg[w] = p // fits: i lost p or an absorbed element above
			d += elen[p] - 1
			nv[i], ne[i] = nvi, w+1-nvi
			if d > n-1 {
				d = n - 1
			}
			h.update(i, d)
		}
	}
	return perm
}

// compactElements makes room for need more entries at the end of ebuf:
// it moves the member lists of the alive elements, visited in elimination
// order (perm), to the front, and reallocates only when less than half of
// the buffer would then be free.
func compactElements(ebuf, perm, estart, elen []int, elemAlive []bool, need int) []int {
	w := 0
	for _, e := range perm {
		if elemAlive[e] {
			copy(ebuf[w:], ebuf[estart[e]:estart[e]+elen[e]])
			estart[e] = w
			w += elen[e]
		}
	}
	if 2*(w+need) > cap(ebuf) {
		grown := make([]int, w, 2*(w+need))
		copy(grown, ebuf[:w])
		return grown
	}
	return ebuf[:w]
}

// degreeHeap is an indexed binary min-heap of nodes keyed by (degree,
// index): node[0] is the alive node of least degree, the lowest-indexed one
// among equals. pos lets a degree change move its node in place, so the heap
// holds each alive node exactly once and only ever shrinks.
type degreeHeap struct {
	node   []int // heap order
	pos    []int // node[pos[i]] == i; −1 once i has been popped
	degree []int
}

func newDegreeHeap(degree []int) *degreeHeap {
	n := len(degree)
	h := &degreeHeap{node: make([]int, n), pos: make([]int, n), degree: degree}
	for i := range h.node {
		h.node[i], h.pos[i] = i, i
	}
	for k := n/2 - 1; k >= 0; k-- {
		h.down(k)
	}
	return h
}

func (h *degreeHeap) less(i, j int) bool {
	di, dj := h.degree[i], h.degree[j]
	return di < dj || di == dj && i < j
}

// pop removes and returns the minimum node.
func (h *degreeHeap) pop() int {
	p := h.node[0]
	last := len(h.node) - 1
	h.node[0] = h.node[last]
	h.node = h.node[:last]
	h.pos[p] = -1
	if last > 0 {
		h.down(0)
	}
	return p
}

// update sets the degree of the alive node i to d and restores heap order.
func (h *degreeHeap) update(i, d int) {
	old := h.degree[i]
	h.degree[i] = d
	if d < old {
		h.up(h.pos[i])
	} else if d > old {
		h.down(h.pos[i])
	}
}

func (h *degreeHeap) up(k int) {
	i := h.node[k]
	for k > 0 {
		parent := (k - 1) / 2
		j := h.node[parent]
		if !h.less(i, j) {
			break
		}
		h.node[k], h.pos[j] = j, k
		k = parent
	}
	h.node[k], h.pos[i] = i, k
}

func (h *degreeHeap) down(k int) {
	i := h.node[k]
	n := len(h.node)
	for {
		c := 2*k + 1
		if c >= n {
			break
		}
		if c+1 < n && h.less(h.node[c+1], h.node[c]) {
			c++
		}
		j := h.node[c]
		if !h.less(j, i) {
			break
		}
		h.node[k], h.pos[j] = j, k
		k = c
	}
	h.node[k], h.pos[i] = i, k
}
