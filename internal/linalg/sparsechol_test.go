package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomSparseSPD builds an n×n sparse symmetric positive-definite matrix as
// BᵀB + I for a random m×n matrix B of the given density, returned in both
// dense and CSR form (identical values).
func randomSparseSPD(rng *rand.Rand, n int, density float64) (*Matrix, *SparseMatrix) {
	m := n + rng.Intn(n+1)
	b := NewMatrix(m, n)
	for i := range b.Data {
		if rng.Float64() < density {
			b.Data[i] = rng.NormFloat64()
		}
	}
	a := NewMatrix(n, n)
	b.AtAInto(a)
	for i := 0; i < n; i++ {
		a.Add(i, i, 1)
	}
	return a, NewSparseFromDense(a)
}

// checkResidual fails the test unless x solves a x = b: the residual
// b − a x must be within tol of ‖a‖∞‖x‖∞ + ‖b‖∞, the size of the rounding
// a backward-stable solve leaves.
func checkResidual(t *testing.T, what string, a *Matrix, x, b Vector, tol float64) {
	t.Helper()
	r := NewVector(len(b))
	a.MulVec(r, x)
	Sub(r, b, r)
	scale := NormInf(a.Data)*NormInf(x) + NormInf(b)
	if res := NormInf(r); res > tol*scale {
		t.Fatalf("%s: residual %g exceeds %g of %g", what, res, tol, scale)
	}
}

// TestSparseCholeskyRandomSPD is the randomized property test of the sparse
// pipeline: 200 random sparse SPD matrices across densities 1%–50%, where
// Solve and SolveRefined must solve the system to a residual of 1e-12.
func TestSparseCholeskyRandomSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 5 + rng.Intn(56)
		density := 0.01 + 0.49*rng.Float64()
		ad, as := randomSparseSPD(rng, n, density)

		sc := NewSparseCholesky(as, nil)
		if err := sc.Factorize(as, 0, 0); err != nil {
			t.Fatalf("trial %d: sparse factorization failed: %v", trial, err)
		}
		if sc.Shift() != 0 {
			t.Fatalf("trial %d: unexpected regularization shift %g", trial, sc.Shift())
		}

		b := NewVector(n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		got := b.Clone()
		sc.Solve(got)
		what := fmt.Sprintf("trial %d (n=%d density=%.2f)", trial, n, density)
		checkResidual(t, what+": Solve", ad, got, b, 1e-12)
		gotR := NewVector(n)
		sc.SolveRefined(as, b, gotR)
		checkResidual(t, what+": SolveRefined", ad, gotR, b, 1e-12)
	}
}

// TestSparseCholeskyRefactorize: the point of the symbolic split — numeric
// refactorization on the same pattern with new values must solve the new
// system without re-analysis.
func TestSparseCholeskyRefactorize(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 30
	ad, as := randomSparseSPD(rng, n, 0.15)
	sc := NewSparseCholesky(as, nil)
	for pass := 0; pass < 5; pass++ {
		// New values on the same pattern: scale every stored entry, keeping
		// SPD (D A D is congruent to A for a positive diagonal D).
		scale := NewVector(n)
		for i := range scale {
			scale[i] = 0.5 + rng.Float64()
		}
		for i := 0; i < n; i++ {
			for k := as.RowPtr[i]; k < as.RowPtr[i+1]; k++ {
				j := as.ColIdx[k]
				as.Val[k] = ad.At(i, j) * scale[i] * scale[j]
			}
		}
		if err := sc.Factorize(as, 0, 0); err != nil {
			t.Fatalf("pass %d: sparse: %v", pass, err)
		}
		b := NewVector(n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		got := b.Clone()
		sc.Solve(got)
		checkResidual(t, fmt.Sprintf("pass %d", pass), as.ToDense(), got, b, 1e-12)
	}
}

// TestSparseCholeskyRegularizationRetry exercises the degenerate path: a
// singular PSD matrix must fail without regularization and succeed with the
// escalating diagonal-shift retry, reporting the shift it applied.
func TestSparseCholeskyRegularizationRetry(t *testing.T) {
	n := 6
	ad := Identity(n)
	ad.Set(n-1, n-1, 0) // exactly singular
	as := NewSparseFromDense(ad)
	sc := NewSparseCholesky(as, nil)
	if err := sc.Factorize(as, 0, 0); err == nil {
		t.Fatal("singular matrix factorized without regularization")
	}
	if err := sc.Factorize(as, 0, 1e-10); err != nil {
		t.Fatalf("regularized factorization failed: %v", err)
	}
	if sc.Shift() <= 0 {
		t.Fatalf("expected a positive retry shift, got %g", sc.Shift())
	}
	// The regularized solve must still be accurate on the nonsingular block.
	b := NewVector(n)
	for i := range b {
		b[i] = float64(i + 1)
	}
	x := b.Clone()
	sc.Solve(x)
	for i := 0; i < n-1; i++ {
		if d := math.Abs(x[i] - b[i]); d > 1e-6 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], b[i])
		}
	}
	// A static shift alone must also factorize it (no retry needed).
	if err := sc.Factorize(as, 1e-8, 0); err != nil {
		t.Fatalf("static shift factorization failed: %v", err)
	}
	if sc.Shift() != 0 {
		t.Fatalf("static shift should not trigger the retry path, got %g", sc.Shift())
	}
}

// TestSparseCholeskyQuasiDef: the factorization must handle the symmetric
// quasi-definite reduced KKT form [[H+εI, Aᵀ], [A, −εI]] under an arbitrary
// fill-reducing permutation, solving it to a residual of 1e-12.
func TestSparseCholeskyQuasiDef(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(20)
		nb := 1 + rng.Intn(3)
		hd, _ := randomSparseSPD(rng, n, 0.2)
		const eps = 1e-10
		nt := n + nb
		kd := NewMatrix(nt, nt)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				kd.Set(i, j, hd.At(i, j))
			}
			kd.Add(i, i, eps)
		}
		for e := 0; e < nb; e++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.4 {
					v := rng.NormFloat64()
					kd.Set(n+e, j, v)
					kd.Set(j, n+e, v)
				}
			}
			kd.Set(n+e, n+e, -eps)
		}
		ks := NewSparseFromDense(kd)
		sc := NewSparseCholesky(ks, nil)
		if err := sc.FactorizeQuasiDef(ks, eps); err != nil {
			t.Fatalf("trial %d: sparse quasi-definite factorization: %v", trial, err)
		}
		b := NewVector(nt)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		got := NewVector(nt)
		sc.SolveRefined(ks, b, got)
		checkResidual(t, fmt.Sprintf("trial %d", trial), kd, got, b, 1e-12)
	}
}

// TestAMDOrderReducesFill: on an arrowhead matrix (dense hub row/column
// first) the natural ordering fills in completely while AMD eliminates the
// hub last and produces no fill at all.
func TestAMDOrderReducesFill(t *testing.T) {
	n := 40
	ad := Identity(n)
	ad.Set(0, 0, float64(n)) // diagonally dominant hub keeps the matrix SPD
	for j := 1; j < n; j++ {
		ad.Set(0, j, 1)
		ad.Set(j, 0, 1)
	}
	as := NewSparseFromDense(ad)

	perm := AMDOrder(as)
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || p >= n || seen[p] {
			t.Fatalf("AMDOrder is not a permutation: %v", perm)
		}
		seen[p] = true
	}

	natural := make([]int, n)
	for i := range natural {
		natural[i] = i
	}
	nat := NewSparseCholesky(as, natural)
	amd := NewSparseCholesky(as, nil)
	if nat.NNZL() != n*(n-1)/2 {
		t.Fatalf("natural ordering of the arrowhead should fill completely: nnz(L) = %d", nat.NNZL())
	}
	if amd.NNZL() != n-1 {
		t.Fatalf("AMD ordering of the arrowhead should be fill-free: nnz(L) = %d", amd.NNZL())
	}
	// Both orderings must still solve correctly.
	if err := amd.Factorize(as, 0, 0); err != nil {
		t.Fatal(err)
	}
	b := NewVector(n)
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	got := b.Clone()
	amd.Solve(got)
	checkResidual(t, "AMD", ad, got, b, 1e-12)
}

// TestSparseAtAMatchesDense: the fixed-pattern scatter plan must reproduce
// the dense AᵀA, including after value rewrites on the same pattern.
func TestSparseAtAMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 30; trial++ {
		m, n := 5+rng.Intn(40), 3+rng.Intn(25)
		a := NewMatrix(m, n)
		for i := range a.Data {
			if rng.Float64() < 0.2 {
				a.Data[i] = rng.NormFloat64()
			}
		}
		as := NewSparseFromDense(a)
		plan := NewSparseAtA(as)
		for pass := 0; pass < 2; pass++ {
			if pass == 1 {
				for k := range as.Val {
					as.Val[k] *= 1 + 0.1*rng.NormFloat64()
				}
				for i := 0; i < m; i++ {
					for k := as.RowPtr[i]; k < as.RowPtr[i+1]; k++ {
						a.Set(i, as.ColIdx[k], as.Val[k])
					}
				}
			}
			plan.Compute(as)
			want := NewMatrix(n, n)
			a.AtAInto(want)
			got := plan.Result.ToDense()
			for i := range got.Data {
				if d := math.Abs(got.Data[i] - want.Data[i]); d > 1e-12*(1+math.Abs(want.Data[i])) {
					t.Fatalf("trial %d pass %d: AᵀA entry %d differs by %g", trial, pass, i, d)
				}
			}
		}
	}
}

// TestSparseIndex: the binary-search entry lookup against a known pattern.
func TestSparseIndex(t *testing.T) {
	s := NewSparseFromPattern(3, 5, [][]int{{0, 2, 4}, {}, {1, 3}})
	for k := range s.Val {
		s.Val[k] = float64(k + 1)
	}
	cases := []struct{ i, j, want int }{
		{0, 0, 0}, {0, 2, 1}, {0, 4, 2}, {0, 1, -1}, {0, 3, -1},
		{1, 0, -1}, {1, 4, -1},
		{2, 1, 3}, {2, 3, 4}, {2, 0, -1}, {2, 2, -1}, {2, 4, -1},
	}
	for _, c := range cases {
		if got := s.Index(c.i, c.j); got != c.want {
			t.Fatalf("Index(%d,%d) = %d, want %d", c.i, c.j, got, c.want)
		}
		want := 0.0
		if c.want >= 0 {
			want = float64(c.want + 1)
		}
		if got := s.At(c.i, c.j); got != want {
			t.Fatalf("At(%d,%d) = %v, want %v", c.i, c.j, got, want)
		}
	}
}
