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
	for i := 0; i < s.Rows; i++ {
		var sum float64
		for k := s.RowPtr[i]; k < s.RowPtr[i+1]; k++ {
			sum += s.Val[k] * x[s.ColIdx[k]]
		}
		dst[i] = sum
	}
}

// MulVecAdd computes dst += alpha * A x.
func (s *SparseMatrix) MulVecAdd(dst Vector, alpha float64, x Vector) {
	if len(dst) != s.Rows || len(x) != s.Cols {
		panic("linalg: sparse MulVecAdd dimension mismatch")
	}
	for i := 0; i < s.Rows; i++ {
		var sum float64
		for k := s.RowPtr[i]; k < s.RowPtr[i+1]; k++ {
			sum += s.Val[k] * x[s.ColIdx[k]]
		}
		dst[i] += alpha * sum
	}
}

// MulVecT computes dst = Aᵀ x.
func (s *SparseMatrix) MulVecT(dst, x Vector) {
	if len(dst) != s.Cols || len(x) != s.Rows {
		panic("linalg: sparse MulVecT dimension mismatch")
	}
	dst.Zero()
	s.MulVecTAdd(dst, 1, x)
}

// MulVecTAdd computes dst += alpha * Aᵀ x.
func (s *SparseMatrix) MulVecTAdd(dst Vector, alpha float64, x Vector) {
	if len(dst) != s.Cols || len(x) != s.Rows {
		panic("linalg: sparse MulVecTAdd dimension mismatch")
	}
	for i := 0; i < s.Rows; i++ {
		xi := alpha * x[i]
		if xi == 0 {
			continue
		}
		for k := s.RowPtr[i]; k < s.RowPtr[i+1]; k++ {
			dst[s.ColIdx[k]] += xi * s.Val[k]
		}
	}
}

// AtAInto computes dst = AᵀA into the dense Cols×Cols matrix dst, visiting
// only the structural nonzeros: each row contributes the outer product of
// its stored entries, O(Σᵢ nnz(rowᵢ)²) total instead of the dense
// O(Rows·Cols²). Rows are accumulated in ascending order, matching the
// summation order of the dense Matrix.AtAInto so the two agree bitwise.
func (s *SparseMatrix) AtAInto(dst *Matrix) {
	n := s.Cols
	if dst.Rows != n || dst.Cols != n {
		panic("linalg: sparse AtAInto dimension mismatch")
	}
	dst.Zero()
	for r := 0; r < s.Rows; r++ {
		lo, hi := s.RowPtr[r], s.RowPtr[r+1]
		for a := lo; a < hi; a++ {
			vi := s.Val[a]
			if vi == 0 {
				continue
			}
			drow := dst.Data[s.ColIdx[a]*n : (s.ColIdx[a]+1)*n]
			for b := a; b < hi; b++ {
				drow[s.ColIdx[b]] += vi * s.Val[b]
			}
		}
	}
	// Mirror the upper triangle.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dst.Data[j*n+i] = dst.Data[i*n+j]
		}
	}
}
