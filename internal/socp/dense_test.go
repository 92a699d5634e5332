package socp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cone"
	"repro/internal/linalg"
)

// This file holds the dense references the tests check the sparse pipeline
// against: dense Cholesky and LDLᵀ factorizations (behind the dense-factor
// oracle of export_test.go), dense copies of sparse matrices, the dense
// product AᵀA and W⁻¹G on a dense G. The solver itself never runs them.

// denseChol holds a lower-triangular Cholesky factor L with A ≈ LLᵀ,
// reusable across matrices of one size through Factorize.
type denseChol struct {
	n int
	l *linalg.Matrix // lower triangular, diagonal > 0
	// shift is the static regularization that was added to the diagonal
	// (0 when the matrix factorized cleanly).
	shift   float64
	scratch linalg.Vector // refinement residual, len n
}

func newDenseChol(n int) *denseChol {
	return &denseChol{n: n, l: linalg.NewMatrix(n, n), scratch: linalg.NewVector(n)}
}

// Factorize factors the symmetric positive-definite A (only the lower
// triangle is read). If it hits a non-positive pivot and reg > 0, it retries
// with diagonal shifts reg, 10·reg, … before giving up, like the sparse
// backends.
func (c *denseChol) Factorize(a *linalg.Matrix, reg float64) error {
	if a.Rows != c.n || a.Cols != c.n {
		panic("socp: dense Cholesky dimension mismatch")
	}
	shift := 0.0
	for attempt := 0; ; attempt++ {
		if c.try(a, shift) {
			c.shift = shift
			return nil
		}
		if reg <= 0 || attempt > 9 {
			return linalg.ErrNotPositiveDefinite
		}
		if shift == 0 {
			shift = reg
		} else {
			shift *= 10
		}
	}
}

// try writes the factor of a + shift·I into c.l (only the lower triangle
// including the diagonal is written and later read).
func (c *denseChol) try(a *linalg.Matrix, shift float64) bool {
	n, l := c.n, c.l
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
func (c *denseChol) Shift() float64 { return c.shift }

// Solve solves A x = b in place: on return, b holds the solution.
func (c *denseChol) Solve(b linalg.Vector) {
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
func (c *denseChol) SolveRefined(a *linalg.Matrix, b, x linalg.Vector) {
	refine(c.Solve, c.scratch, a, b, x)
}

// denseLDL holds an LDLᵀ factorization without pivoting of a symmetric
// quasi-definite matrix: A ≈ L D Lᵀ with unit lower triangular L and
// diagonal D, reusable across matrices of one size through Factorize.
type denseLDL struct {
	n       int
	l       *linalg.Matrix
	d       linalg.Vector
	scratch linalg.Vector // refinement residual, len n
}

func newDenseLDL(n int) *denseLDL {
	l := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		l.Set(i, i, 1)
	}
	return &denseLDL{n: n, l: l, d: linalg.NewVector(n), scratch: linalg.NewVector(n)}
}

// Factorize factors the symmetric A (the full matrix is read). Pivots
// whose magnitude falls below eps are replaced by ±eps, keeping their sign
// (+eps when zero), which keeps quasi-definite KKT matrices factorable.
func (f *denseLDL) Factorize(a *linalg.Matrix, eps float64) error {
	if a.Rows != f.n || a.Cols != f.n {
		panic("socp: dense LDLᵀ dimension mismatch")
	}
	n, l, d := f.n, f.l, f.d
	for j := 0; j < n; j++ {
		dj := a.At(j, j)
		for k := 0; k < j; k++ {
			v := l.At(j, k)
			dj -= v * v * d[k]
		}
		if math.IsNaN(dj) {
			return linalg.ErrNotPositiveDefinite
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
func (f *denseLDL) Solve(b linalg.Vector) {
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
func (f *denseLDL) SolveRefined(a *linalg.Matrix, b, x linalg.Vector) {
	refine(f.Solve, f.scratch, a, b, x)
}

// refine sets x = A⁻¹b through solve and corrects it once by A⁻¹(b − A x),
// with r as the residual workspace.
func refine(solve func(linalg.Vector), r linalg.Vector, a *linalg.Matrix, b, x linalg.Vector) {
	x.CopyFrom(b)
	solve(x)
	a.MulVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	solve(r)
	x.AddScaled(1, r)
}

// toDense expands s into dense row-major form.
func toDense(s *linalg.SparseMatrix) *linalg.Matrix {
	m := linalg.NewMatrix(s.Rows, s.Cols)
	for i := 0; i < s.Rows; i++ {
		for k := s.RowPtr[i]; k < s.RowPtr[i+1]; k++ {
			m.Data[i*s.Cols+s.ColIdx[k]] = s.Val[k]
		}
	}
	return m
}

// ataInto writes AᵀA into dst (a.Cols × a.Cols), summing the rows of a in
// ascending order as the sparse assembly does.
func ataInto(dst, a *linalg.Matrix) {
	n := a.Cols
	dst.Zero()
	for k := 0; k < a.Rows; k++ {
		row := a.Data[k*n : (k+1)*n]
		for i, ri := range row {
			if ri == 0 {
				continue
			}
			drow := dst.Data[i*n : (i+1)*n]
			for j := i; j < n; j++ {
				drow[j] += ri * row[j]
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dst.Data[j*n+i] = dst.Data[i*n+j]
		}
	}
}

// scaleRows replaces the dense g, whose rows follow the cone dims, by W⁻¹G:
// orthant row i is multiplied by 1/dᵢ and every column of an SOC block is
// mapped through that block's P(v⁻¹), exactly as fillScaled does on the
// sparse pattern.
func scaleRows(w *cone.Scaling, dims cone.Dims, g *linalg.Matrix) {
	n := g.Cols
	for i := 0; i < dims.NonNeg; i++ {
		inv := w.OrthantInv(i)
		row := g.Data[i*n : (i+1)*n]
		for j := range row {
			row[j] *= inv
		}
	}
	off := dims.NonNeg
	for bi, q := range dims.SOC {
		col, out := linalg.NewVector(q), linalg.NewVector(q)
		for j := 0; j < n; j++ {
			for r := 0; r < q; r++ {
				col[r] = g.Data[(off+r)*n+j]
			}
			w.ApplyInvSOC(bi, out, col)
			for r := 0; r < q; r++ {
				g.Data[(off+r)*n+j] = out[r]
			}
		}
		off += q
	}
}

// randSPD returns a random symmetric positive-definite n×n matrix BᵀB + 0.1·I
// for a random (n+2)×n matrix B.
func randSPD(rng *rand.Rand, n int) *linalg.Matrix {
	b := linalg.NewMatrix(n+2, n) // tall => full column rank almost surely
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := linalg.NewMatrix(n, n)
	ataInto(a, b)
	for i := 0; i < n; i++ {
		a.Add(i, i, 0.1) // ensure strict positive definiteness
	}
	return a
}

func TestDenseCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(12)
		a := randSPD(rng, n)
		ch := newDenseChol(n)
		if err := ch.Factorize(a, 0); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if ch.Shift() != 0 {
			t.Fatalf("unexpected shift %v", ch.Shift())
		}
		// L·Lᵀ must reconstruct A.
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				var llt float64
				for k := 0; k <= j; k++ {
					llt += ch.l.At(i, k) * ch.l.At(j, k)
				}
				if !almostEqual(llt, a.At(i, j), 1e-9) {
					t.Fatalf("trial %d: LLᵀ != A at (%d,%d): %v vs %v", trial, i, j, llt, a.At(i, j))
				}
			}
		}
	}
}

func TestDenseCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(15)
		a := randSPD(rng, n)
		xTrue := linalg.NewVector(n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := linalg.NewVector(n)
		a.MulVec(b, xTrue)
		ch := newDenseChol(n)
		if err := ch.Factorize(a, 0); err != nil {
			t.Fatal(err)
		}
		x := b.Clone()
		ch.Solve(x)
		for i := range x {
			if !almostEqual(x[i], xTrue[i], 1e-7) {
				t.Fatalf("solve mismatch at %d: %v vs %v", i, x[i], xTrue[i])
			}
		}
	}
}

func TestDenseCholeskyRejectsIndefinite(t *testing.T) {
	a := &linalg.Matrix{Rows: 2, Cols: 2, Data: []float64{1, 0, 0, -1}}
	if err := newDenseChol(2).Factorize(a, 0); err == nil {
		t.Fatal("expected failure on indefinite matrix with no regularization")
	}
}

func TestDenseCholeskyRegularizationRecovers(t *testing.T) {
	// Singular PSD matrix: regularization should let factorization succeed.
	a := &linalg.Matrix{Rows: 2, Cols: 2, Data: []float64{1, 1, 1, 1}}
	ch := newDenseChol(2)
	if err := ch.Factorize(a, 1e-10); err != nil {
		t.Fatalf("regularized factorization failed: %v", err)
	}
	if ch.Shift() <= 0 {
		t.Fatalf("expected positive shift, got %v", ch.Shift())
	}
}

func TestDenseCholeskySolveRefined(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	// Moderately ill-conditioned matrix (still SPD: only the diagonal grew).
	n := 8
	a := randSPD(rng, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)*math.Pow(10, float64(i)/2))
	}
	xTrue := linalg.NewVector(n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := linalg.NewVector(n)
	a.MulVec(b, xTrue)
	ch := newDenseChol(n)
	if err := ch.Factorize(a, 1e-12); err != nil {
		t.Fatal(err)
	}
	x := linalg.NewVector(n)
	ch.SolveRefined(a, b, x)
	r := linalg.NewVector(n)
	a.MulVec(r, x)
	linalg.Sub(r, b, r)
	if rel := linalg.Norm2(r) / math.Max(1, linalg.Norm2(b)); rel > 1e-9 {
		t.Fatalf("refined residual too large: %v", rel)
	}
}

func TestDenseLDLTSolveSymmetricIndefinite(t *testing.T) {
	// KKT-style quasi-definite matrix: [[H, Aᵀ],[A, -εI]].
	a := &linalg.Matrix{Rows: 3, Cols: 3, Data: []float64{
		2, 0, 1,
		0, 3, 1,
		1, 1, -1e-8,
	}}
	f := newDenseLDL(3)
	if err := f.Factorize(a, 1e-14); err != nil {
		t.Fatal(err)
	}
	xTrue := linalg.Vector{1, -2, 3}
	b := linalg.NewVector(3)
	a.MulVec(b, xTrue)
	x := b.Clone()
	f.Solve(x)
	for i := range x {
		if !almostEqual(x[i], xTrue[i], 1e-6) {
			t.Fatalf("LDLT solve mismatch at %d: %v vs %v", i, x[i], xTrue[i])
		}
	}
}

func TestDenseLDLTSolveRefined(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 10
	a := randSPD(rng, n)
	xTrue := linalg.NewVector(n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := linalg.NewVector(n)
	a.MulVec(b, xTrue)
	f := newDenseLDL(n)
	if err := f.Factorize(a, 1e-14); err != nil {
		t.Fatal(err)
	}
	x := linalg.NewVector(n)
	f.SolveRefined(a, b, x)
	for i := range x {
		if !almostEqual(x[i], xTrue[i], 1e-8) {
			t.Fatalf("refined LDLT mismatch at %d: %v vs %v", i, x[i], xTrue[i])
		}
	}
}

func TestDenseLDLTZeroPivotClamped(t *testing.T) {
	// Diagonal contains an exact zero; eps-clamping must keep it solvable.
	a := &linalg.Matrix{Rows: 2, Cols: 2, Data: []float64{0, 1, 1, 0}}
	f := newDenseLDL(2)
	if err := f.Factorize(a, 1e-8); err != nil {
		t.Fatal(err)
	}
	b := linalg.Vector{1, 1}
	f.Solve(b) // must not NaN/panic
	for _, v := range b {
		if math.IsNaN(v) {
			t.Fatal("NaN after zero-pivot clamp")
		}
	}
}

// Property: for random SPD matrices, the dense Cholesky solve residual is
// tiny.
func TestDenseCholeskySolveResidualProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		a := randSPD(r, n)
		b := linalg.NewVector(n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		ch := newDenseChol(n)
		if err := ch.Factorize(a, 0); err != nil {
			return false
		}
		x := b.Clone()
		ch.Solve(x)
		res := linalg.NewVector(n)
		a.MulVec(res, x)
		linalg.Sub(res, b, res)
		return linalg.Norm2(res)/math.Max(1, linalg.Norm2(b)) < 1e-8
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
