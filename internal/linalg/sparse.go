package linalg

import (
	"fmt"
	"sort"
)

// SparseMatrix is a compressed-sparse-row (CSR) matrix. Row i's entries are
// ColIdx[RowPtr[i]:RowPtr[i+1]] (column indices, strictly increasing) and
// Val[RowPtr[i]:RowPtr[i+1]] (the corresponding values).
//
// The intended use in this repository is structural: most SRDF-derived
// constraint rows of the cone program touch only a handful of variables
// each, so the normal-equations assembly Gᵀ W⁻² G — the hot loop of every
// interior-point iteration — only needs to visit the structural nonzeros
// instead of full dense rows. (The few long coupling rows are factored
// outside Gᵀ W⁻² G; see socp's sparseView.)
type SparseMatrix struct {
	Rows, Cols int
	RowPtr     []int // len Rows+1
	ColIdx     []int // len NNZ()
	Val        []float64
}

// NewSparseFromDense converts a dense matrix to CSR, dropping exact zeros.
func NewSparseFromDense(m *Matrix) *SparseMatrix {
	s := &SparseMatrix{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int, m.Rows+1)}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			if v != 0 {
				s.ColIdx = append(s.ColIdx, j)
				s.Val = append(s.Val, v)
			}
		}
		s.RowPtr[i+1] = len(s.ColIdx)
	}
	return s
}

// NewSparseFromPattern builds a CSR matrix with the given structural pattern
// and all values zero. pattern[i] lists row i's column indices and must be
// strictly increasing.
func NewSparseFromPattern(rows, cols int, pattern [][]int) *SparseMatrix {
	if len(pattern) != rows {
		panic("linalg: pattern length does not match row count")
	}
	s := &SparseMatrix{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	nnz := 0
	for _, p := range pattern {
		nnz += len(p)
	}
	s.ColIdx = make([]int, 0, nnz)
	for i, p := range pattern {
		for k, j := range p {
			if j < 0 || j >= cols {
				panic(fmt.Sprintf("linalg: pattern column %d out of range [0,%d)", j, cols))
			}
			if k > 0 && p[k-1] >= j {
				panic("linalg: pattern columns must be strictly increasing")
			}
			s.ColIdx = append(s.ColIdx, j)
		}
		s.RowPtr[i+1] = len(s.ColIdx)
	}
	s.Val = make([]float64, len(s.ColIdx))
	return s
}

// NNZ returns the number of stored entries.
func (s *SparseMatrix) NNZ() int { return len(s.ColIdx) }

// At returns entry (i, j), 0 when it is not stored. Rows keep their column
// indices sorted, so the lookup is a binary search of row i.
func (s *SparseMatrix) At(i, j int) float64 {
	if k := s.Index(i, j); k >= 0 {
		return s.Val[k]
	}
	return 0
}

// Index returns the storage position of entry (i, j) in ColIdx/Val, or −1
// when the entry is not stored. Rows keep their column indices strictly
// increasing, so this is a binary search of row i.
func (s *SparseMatrix) Index(i, j int) int {
	lo, hi := s.RowPtr[i], s.RowPtr[i+1]
	row := s.ColIdx[lo:hi]
	k := sort.SearchInts(row, j)
	if k < len(row) && row[k] == j {
		return lo + k
	}
	return -1
}

// NormInf returns the maximum absolute stored value (entries outside the
// pattern are zero, so this equals the dense max-absolute-entry norm).
func (s *SparseMatrix) NormInf() float64 {
	var m float64
	for _, v := range s.Val {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// Clone returns a deep copy of s.
func (s *SparseMatrix) Clone() *SparseMatrix {
	c := &SparseMatrix{
		Rows: s.Rows, Cols: s.Cols,
		RowPtr: make([]int, len(s.RowPtr)),
		ColIdx: make([]int, len(s.ColIdx)),
		Val:    make([]float64, len(s.Val)),
	}
	copy(c.RowPtr, s.RowPtr)
	copy(c.ColIdx, s.ColIdx)
	copy(c.Val, s.Val)
	return c
}

// MulVec computes dst = A x.
func (s *SparseMatrix) MulVec(dst, x Vector) {
	if len(dst) != s.Rows || len(x) != s.Cols {
		panic(fmt.Sprintf("linalg: sparse MulVec dims %dx%d with |dst|=%d |x|=%d", s.Rows, s.Cols, len(dst), len(x)))
	}
	rp := s.RowPtr[:len(dst)+1]
	for i := range dst {
		dst[i] = s.rowDot(rp[i], rp[i+1], x)
	}
}

// Residual computes dst = b − A x, each row in the pass that forms its
// product. dst may be b itself.
func (s *SparseMatrix) Residual(dst, b, x Vector) {
	if len(dst) != s.Rows || len(b) != s.Rows || len(x) != s.Cols {
		panic("linalg: sparse Residual dimension mismatch")
	}
	rp := s.RowPtr[:len(dst)+1]
	b = b[:len(dst)]
	for i := range dst {
		dst[i] = b[i] - s.rowDot(rp[i], rp[i+1], x)
	}
}

// ResidualAdd computes dst = (b − A x) + y, each row in the pass that forms
// its product. dst may be b or y itself.
func (s *SparseMatrix) ResidualAdd(dst, b, x, y Vector) {
	if len(dst) != s.Rows || len(b) != s.Rows || len(y) != s.Rows || len(x) != s.Cols {
		panic("linalg: sparse ResidualAdd dimension mismatch")
	}
	rp := s.RowPtr[:len(dst)+1]
	b, y = b[:len(dst)], y[:len(dst)]
	for i := range dst {
		dst[i] = (b[i] - s.rowDot(rp[i], rp[i+1], x)) + y[i]
	}
}

// rowDot returns the dot product of the stored entries [lo, hi) of a row
// with x, summed in storage order from 0.
func (s *SparseMatrix) rowDot(lo, hi int, x Vector) float64 {
	vals := s.Val[lo:hi]
	cols := s.ColIdx[lo:hi]
	cols = cols[:len(vals)]
	var sum float64
	for k, v := range vals {
		sum += v * x[cols[k]]
	}
	return sum
}

// MulVecTAdd computes dst += alpha * Aᵀ x.
func (s *SparseMatrix) MulVecTAdd(dst Vector, alpha float64, x Vector) {
	if len(dst) != s.Cols || len(x) != s.Rows {
		panic("linalg: sparse MulVecTAdd dimension mismatch")
	}
	rp := s.RowPtr[:len(x)+1]
	for i, xv := range x {
		xi := alpha * xv
		if xi == 0 {
			continue
		}
		lo, hi := rp[i], rp[i+1]
		vals := s.Val[lo:hi]
		cols := s.ColIdx[lo:hi]
		cols = cols[:len(vals)]
		for k, v := range vals {
			dst[cols[k]] += xi * v
		}
	}
}
