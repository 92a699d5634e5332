// Package linalg provides the sparse linear-algebra kernels of the
// interior-point solver in this repository: dense vectors, compressed-row
// (CSR) matrices with their products and residuals, the AᵀA assembly of the
// normal equations, a fill-reducing ordering and symbolic analysis, and
// sparse LDLᵀ factorizations (simplicial and supernodal) with static
// regularization, triangular solves and iterative refinement.
//
// The package is deliberately small and dependency-free (stdlib only). The
// cone programs of the budget/buffer mapping flow have tens to a few
// thousand variables, but most constraint rows touch only a handful of
// them, so every kernel an iteration runs visits stored nonzeros only. A
// dense row-major Matrix remains for problems given with a dense constraint
// matrix, which are converted to CSR before a solve.
package linalg

import (
	"fmt"
	"math"
)

// Vector is a dense column vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	w := make(Vector, len(v))
	copy(w, v)
	return w
}

// CopyFrom copies src into v. The lengths must match.
func (v Vector) CopyFrom(src Vector) {
	if len(v) != len(src) {
		panic(fmt.Sprintf("linalg: CopyFrom length mismatch %d != %d", len(v), len(src)))
	}
	copy(v, src)
}

// Zero sets all entries of v to zero.
func (v Vector) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// Scale multiplies every entry of v by a.
func (v Vector) Scale(a float64) {
	for i := range v {
		v[i] *= a
	}
}

// AddScaled sets v = v + a*w.
func (v Vector) AddScaled(a float64, w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: AddScaled length mismatch %d != %d", len(v), len(w)))
	}
	for i := range v {
		v[i] += a * w[i]
	}
}

// Dot returns vᵀw.
func Dot(v, w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d != %d", len(v), len(w)))
	}
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v, guarding against overflow.
func Norm2(v Vector) float64 {
	var scale, ssq float64 = 0, 1
	for _, x := range v {
		if x == 0 {
			continue
		}
		ax := math.Abs(x)
		if scale < ax {
			r := scale / ax
			ssq = 1 + ssq*r*r
			scale = ax
		} else {
			r := ax / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// NormInf returns the maximum absolute entry of v (0 for an empty vector).
func NormInf(v Vector) float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Axpby sets dst = a*x + b*y. All three vectors must have equal length.
func Axpby(dst Vector, a float64, x Vector, b float64, y Vector) {
	if len(dst) != len(x) || len(dst) != len(y) {
		panic("linalg: Axpby length mismatch")
	}
	for i := range dst {
		dst[i] = a*x[i] + b*y[i]
	}
}

// Sub sets dst = x - y.
func Sub(dst, x, y Vector) { Axpby(dst, 1, x, -1, y) }

// Add sets dst = x + y.
func Add(dst, x, y Vector) { Axpby(dst, 1, x, 1, y) }
