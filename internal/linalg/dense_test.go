package linalg

import "fmt"

// This file holds the dense matrix operations that only the tests use, as
// references for the sparse kernels and to build test matrices.

// NewMatrixFromRows builds a matrix from row slices, which must all have the
// same length.
func NewMatrixFromRows(rows [][]float64) *Matrix {
	r := len(rows)
	c := 0
	if r > 0 {
		c = len(rows[0])
	}
	m := NewMatrix(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("linalg: ragged rows")
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

// Mul returns A·B as a new matrix.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: Mul dims %dx%d · %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	c := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		arow := m.Data[i*m.Cols : (i+1)*m.Cols]
		crow := c.Data[i*c.Cols : (i+1)*c.Cols]
		for k, aik := range arow {
			if aik == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bkj := range brow {
				crow[j] += aik * bkj
			}
		}
	}
	return c
}

// AtAInto computes dst = AᵀA (dst must be Cols×Cols). Only the full symmetric
// matrix is written.
func (m *Matrix) AtAInto(dst *Matrix) {
	n := m.Cols
	if dst.Rows != n || dst.Cols != n {
		panic("linalg: AtAInto dimension mismatch")
	}
	dst.Zero()
	for k := 0; k < m.Rows; k++ {
		row := m.Data[k*m.Cols : (k+1)*m.Cols]
		for i := 0; i < n; i++ {
			ri := row[i]
			if ri == 0 {
				continue
			}
			drow := dst.Data[i*n : (i+1)*n]
			for j := i; j < n; j++ {
				drow[j] += ri * row[j]
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

// ToDense expands the matrix into dense row-major form.
func (s *SparseMatrix) ToDense() *Matrix {
	m := NewMatrix(s.Rows, s.Cols)
	for i := 0; i < s.Rows; i++ {
		for k := s.RowPtr[i]; k < s.RowPtr[i+1]; k++ {
			m.Data[i*s.Cols+s.ColIdx[k]] = s.Val[k]
		}
	}
	return m
}
