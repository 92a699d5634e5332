package linalg

import (
	"errors"
	"math"
)

// ErrNotPositiveDefinite is returned when a Cholesky factorization encounters
// a non-positive pivot even after the allowed regularization.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// Cholesky holds a lower-triangular Cholesky factor L with A ≈ LLᵀ. A
// Cholesky can be reused as a factorization workspace across matrices of the
// same size via Factorize, which avoids reallocating the factor in iterative
// algorithms that refactorize every step.
type Cholesky struct {
	n int
	l *Matrix // lower triangular, diagonal > 0
	// shift is the static regularization that was added to the diagonal
	// (0 when the matrix factorized cleanly).
	shift   float64
	scratch Vector // refinement residual, len n
}

// NewCholeskyWorkspace returns an unfactorized n×n Cholesky workspace;
// Factorize must be called before Solve.
func NewCholeskyWorkspace(n int) *Cholesky {
	return &Cholesky{n: n, l: NewMatrix(n, n), scratch: NewVector(n)}
}

// NewCholesky factorizes the symmetric positive-definite matrix A (only the
// lower triangle is read). If the factorization hits a non-positive pivot and
// reg > 0, it retries with increasing diagonal shifts reg, 10·reg, … up to
// 1e8·reg before giving up.
func NewCholesky(a *Matrix, reg float64) (*Cholesky, error) {
	c := NewCholeskyWorkspace(a.Rows)
	if err := c.Factorize(a, reg); err != nil {
		return nil, err
	}
	return c, nil
}

// Factorize (re)factorizes A into the existing workspace, with the same
// regularization retry policy as NewCholesky. A must be n×n.
func (c *Cholesky) Factorize(a *Matrix, reg float64) error {
	if a.Rows != a.Cols {
		panic("linalg: Cholesky of non-square matrix")
	}
	if a.Rows != c.n {
		panic("linalg: Cholesky.Factorize dimension mismatch")
	}
	shift := 0.0
	for attempt := 0; ; attempt++ {
		if tryCholesky(a, shift, c.l) {
			c.shift = shift
			return nil
		}
		if reg <= 0 || attempt > 9 {
			return ErrNotPositiveDefinite
		}
		if shift == 0 {
			shift = reg
		} else {
			shift *= 10
		}
	}
}

// tryCholesky writes the factor into l (which must be n×n; only the lower
// triangle including the diagonal is written and later read).
func tryCholesky(a *Matrix, shift float64, l *Matrix) bool {
	n := a.Rows
	for j := 0; j < n; j++ {
		d := a.At(j, j) + shift
		lrowj := l.Data[j*n : j*n+j]
		for _, v := range lrowj {
			d -= v * v
		}
		if d <= 0 || math.IsNaN(d) {
			return false
		}
		d = math.Sqrt(d)
		l.Set(j, j, d)
		inv := 1 / d
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			lrowi := l.Data[i*n : i*n+j]
			for k, v := range lrowi {
				s -= v * lrowj[k]
			}
			l.Set(i, j, s*inv)
		}
	}
	return true
}

// Shift returns the diagonal regularization that was applied (0 if none).
func (c *Cholesky) Shift() float64 { return c.shift }

// Solve solves A x = b in place: on return, b holds the solution.
func (c *Cholesky) Solve(b Vector) {
	if len(b) != c.n {
		panic("linalg: Cholesky.Solve dimension mismatch")
	}
	n, l := c.n, c.l
	// Forward substitution L y = b.
	for i := 0; i < n; i++ {
		s := b[i]
		row := l.Data[i*n : i*n+i]
		for k, v := range row {
			s -= v * b[k]
		}
		b[i] = s / l.Data[i*n+i]
	}
	// Back substitution Lᵀ x = y.
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < n; k++ {
			s -= l.Data[k*n+i] * b[k]
		}
		b[i] = s / l.Data[i*n+i]
	}
}

// SolveRefined solves A x = b with one step of iterative refinement against
// the original matrix a (which may differ from the factorized matrix by the
// regularization shift). The solution is written into x; b is not modified.
func (c *Cholesky) SolveRefined(a *Matrix, b Vector, x Vector) {
	if len(x) != c.n || len(b) != c.n {
		panic("linalg: SolveRefined dimension mismatch")
	}
	x.CopyFrom(b)
	c.Solve(x)
	// Residual r = b - A x; correct x by A⁻¹ r.
	r := c.scratch
	a.MulVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	c.Solve(r)
	x.AddScaled(1, r)
}

// LDLT holds an LDLᵀ factorization of a symmetric (possibly indefinite,
// quasi-definite) matrix without pivoting: A ≈ L D Lᵀ with unit lower
// triangular L and diagonal D. It is intended for KKT systems that are
// symmetric quasi-definite after regularization. Like Cholesky, an LDLT can
// be reused as a factorization workspace via Factorize.
type LDLT struct {
	n       int
	l       *Matrix
	d       Vector
	scratch Vector // refinement residual, len n
}

// NewLDLTWorkspace returns an unfactorized n×n LDLᵀ workspace; Factorize
// must be called before Solve.
func NewLDLTWorkspace(n int) *LDLT {
	return &LDLT{n: n, l: Identity(n), d: NewVector(n), scratch: NewVector(n)}
}

// NewLDLT factorizes A (reading the full matrix; A must be symmetric).
// Diagonal entries whose magnitude falls below eps are replaced by ±eps,
// preserving sign (or +eps when zero), which keeps the factorization usable
// for quasi-definite KKT matrices.
func NewLDLT(a *Matrix, eps float64) (*LDLT, error) {
	f := NewLDLTWorkspace(a.Rows)
	if err := f.Factorize(a, eps); err != nil {
		return nil, err
	}
	return f, nil
}

// Factorize (re)factorizes A into the existing workspace with the same
// diagonal-floor policy as NewLDLT. A must be n×n.
func (f *LDLT) Factorize(a *Matrix, eps float64) error {
	if a.Rows != a.Cols {
		panic("linalg: LDLT of non-square matrix")
	}
	if a.Rows != f.n {
		panic("linalg: LDLT.Factorize dimension mismatch")
	}
	n, l, d := f.n, f.l, f.d
	for j := 0; j < n; j++ {
		dj := a.At(j, j)
		for k := 0; k < j; k++ {
			v := l.At(j, k)
			dj -= v * v * d[k]
		}
		if math.IsNaN(dj) {
			return ErrNotPositiveDefinite
		}
		if math.Abs(dj) < eps {
			if dj < 0 {
				dj = -eps
			} else {
				dj = eps
			}
		}
		d[j] = dj
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k) * d[k]
			}
			l.Set(i, j, s/dj)
		}
	}
	return nil
}

// Solve solves A x = b in place.
func (f *LDLT) Solve(b Vector) {
	if len(b) != f.n {
		panic("linalg: LDLT.Solve dimension mismatch")
	}
	n, l := f.n, f.l
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.Data[i*n+k] * b[k]
		}
		b[i] = s
	}
	for i := 0; i < n; i++ {
		b[i] /= f.d[i]
	}
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < n; k++ {
			s -= l.Data[k*n+i] * b[k]
		}
		b[i] = s
	}
}

// SolveRefined solves A x = b with one iterative-refinement step against the
// original matrix a. The result is stored in x; b is unchanged.
func (f *LDLT) SolveRefined(a *Matrix, b Vector, x Vector) {
	x.CopyFrom(b)
	f.Solve(x)
	r := f.scratch
	a.MulVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	f.Solve(r)
	x.AddScaled(1, r)
}
