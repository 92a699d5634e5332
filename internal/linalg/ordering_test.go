package linalg

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// amdOrderScan is the reference minimum-degree ordering AMDOrder must
// reproduce: the same quotient graph and degree bound, with per-node slices
// for the plain neighbors and element lists, and each pivot found by
// scanning all n nodes for the lowest (degree, index) pair. It is O(n²) in
// the pivot search, which is what AMDOrder's indexed heap removes.
func amdOrderScan(a *SparseMatrix) []int {
	n := a.Rows
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if j := a.ColIdx[k]; j != i {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	for i := range adj {
		sort.Ints(adj[i])
		adj[i] = slices.Compact(adj[i])
	}

	perm := make([]int, 0, n)
	elems := make([][]int, n)     // element ids adjacent to each node
	elemNodes := make([][]int, n) // alive members of the element created at node p's elimination
	alive := make([]bool, n)
	elemAlive := make([]bool, n)
	degree := make([]int, n)
	mark := make([]int, n)
	for i := 0; i < n; i++ {
		alive[i] = true
		degree[i] = len(adj[i])
		mark[i] = -1
	}
	stamp := 0
	var le []int
	for len(perm) < n {
		p, best := -1, n+1
		for i := 0; i < n; i++ {
			if alive[i] && degree[i] < best {
				p, best = i, degree[i]
			}
		}
		stamp++
		mark[p] = stamp
		le = le[:0]
		for _, u := range adj[p] {
			if alive[u] && mark[u] != stamp {
				mark[u] = stamp
				le = append(le, u)
			}
		}
		for _, e := range elems[p] {
			for _, u := range elemNodes[e] {
				if alive[u] && u != p && mark[u] != stamp {
					mark[u] = stamp
					le = append(le, u)
				}
			}
			elemAlive[e] = false
			elemNodes[e] = nil
		}
		sort.Ints(le)
		alive[p] = false
		perm = append(perm, p)
		elemNodes[p] = append([]int(nil), le...)
		elemAlive[p] = true
		adj[p], elems[p] = nil, nil
		for _, i := range elemNodes[p] {
			w := adj[i][:0]
			for _, u := range adj[i] {
				if alive[u] && mark[u] != stamp {
					w = append(w, u)
				}
			}
			adj[i] = w
			we := elems[i][:0]
			for _, e := range elems[i] {
				if elemAlive[e] {
					we = append(we, e)
				}
			}
			elems[i] = append(we, p)
			d := len(adj[i])
			for _, e := range elems[i] {
				d += len(elemNodes[e]) - 1
			}
			if d > n-1 {
				d = n - 1
			}
			degree[i] = d
		}
	}
	return perm
}

// randomPattern returns an n×n pattern of one of several shapes: uniform
// random, banded, arrow-shaped (a few dense hub rows and columns over a
// sparse or banded body), block diagonal, or lower-triangular only (so the
// symmetrization is exercised). The diagonal is present on some rows only.
func randomPattern(rng *rand.Rand, n int, shape int) *SparseMatrix {
	rows := make([]map[int]bool, n)
	for i := range rows {
		rows[i] = map[int]bool{}
		if rng.Intn(2) == 0 {
			rows[i][i] = true
		}
	}
	add := func(i, j int) { rows[i][j] = true }
	switch shape {
	case 0: // uniform random, not necessarily symmetric
		density := rng.Float64() * 0.3
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < density {
					add(i, j)
				}
			}
		}
	case 1: // banded with random bandwidth and holes
		bw := 1 + rng.Intn(6)
		for i := 0; i < n; i++ {
			for j := i - bw; j <= i+bw; j++ {
				if j >= 0 && j < n && rng.Intn(4) != 0 {
					add(i, j)
				}
			}
		}
	case 2: // arrow: hub rows/columns anywhere, over a sparse body
		hubs := 1 + rng.Intn(3)
		for h := 0; h < hubs && n > 0; h++ {
			c := rng.Intn(n)
			for j := 0; j < n; j++ {
				if rng.Intn(5) != 0 {
					add(c, j)
					add(j, c)
				}
			}
		}
		for k := 0; k < n; k++ {
			add(rng.Intn(n), rng.Intn(n))
		}
	case 3: // arrow over a chain body, hubs last (the KKT coupling shape)
		hubs := 1 + rng.Intn(3)
		for i := 0; i+1 < n; i++ {
			add(i, i+1)
		}
		for h := 0; h < hubs && h < n; h++ {
			c := n - 1 - h
			for j := 0; j < c; j++ {
				if rng.Intn(3) != 0 {
					add(j, c)
				}
			}
		}
	case 4: // block diagonal with random dense-ish blocks
		for lo := 0; lo < n; {
			hi := min(n, lo+1+rng.Intn(8))
			for i := lo; i < hi; i++ {
				for j := lo; j < hi; j++ {
					if rng.Intn(3) != 0 {
						add(i, j)
					}
				}
			}
			lo = hi
		}
	default: // lower triangle only
		density := rng.Float64() * 0.4
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				if rng.Float64() < density {
					add(i, j)
				}
			}
		}
	}
	pattern := make([][]int, n)
	for i, r := range rows {
		for j := range r {
			pattern[i] = append(pattern[i], j)
		}
		sort.Ints(pattern[i])
	}
	return NewSparseFromPattern(n, n, pattern)
}

// TestAMDOrderMatchesScan: the heap-driven AMDOrder returns exactly the
// permutation of the O(n²) reference scan on random patterns of every shape,
// so every downstream factorization and iterate is unchanged.
func TestAMDOrderMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const trials = 1200
	for trial := 0; trial < trials; trial++ {
		shape := trial % 6
		n := rng.Intn(80)
		if trial%50 == 0 {
			n = 150 + rng.Intn(150)
		}
		a := randomPattern(rng, n, shape)
		want := amdOrderScan(a)
		if got := AMDOrder(a); !slices.Equal(got, want) {
			t.Fatalf("trial %d (shape %d, n %d, nnz %d): AMDOrder = %v, scan = %v", trial, shape, n, a.NNZ(), got, want)
		}
	}
}
