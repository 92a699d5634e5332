package linalg

import (
	"fmt"
	"strings"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, Data[i*Cols+j] = A[i][j]
}

// NewMatrix returns a zero Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns A[i][j].
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set sets A[i][j] = v.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add adds v to A[i][j].
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets every entry of m to zero.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// MulVec computes dst = A x. dst must have length A.Rows and x length A.Cols.
func (m *Matrix) MulVec(dst, x Vector) {
	if len(dst) != m.Rows || len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVec dims %dx%d with |dst|=%d |x|=%d", m.Rows, m.Cols, len(dst), len(x)))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, a := range row {
			s += a * x[j]
		}
		dst[i] = s
	}
}

// MulVecTAdd computes dst += alpha * Aᵀ x.
func (m *Matrix) MulVecTAdd(dst Vector, alpha float64, x Vector) {
	if len(dst) != m.Cols || len(x) != m.Rows {
		panic("linalg: MulVecTAdd dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		xi := alpha * x[i]
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, a := range row {
			dst[j] += xi * a
		}
	}
}

// NormInf returns the maximum absolute entry.
func (m *Matrix) NormInf() float64 { return NormInf(m.Data) }

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "% .6g", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
