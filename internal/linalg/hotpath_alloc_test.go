package linalg

import (
	"math/rand"
	"testing"
)

// TestHotpathRefactorizationAllocFree requires that every function
// annotated //bbvet:hotpath in this package — the AᵀA refill, the numeric
// LDLᵀ refactorization (both the SPD and the quasi-definite kernels), the
// triangular solves, and the CSR products and residuals — does not allocate
// once the symbolic analysis has been done. The hotalloc analyzer checks
// only the annotated bodies themselves; this guard is the only check of the
// calls they make.
func TestHotpathRefactorizationAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	_, as := randomSparseSPD(rng, 60, 0.1)
	ata := NewSparseAtA(as)
	ata.Compute(as)
	h := ata.Result
	sc := NewSparseCholesky(h, nil)
	if err := sc.Factorize(h, 0, 1e-12); err != nil {
		t.Fatal(err)
	}
	b := NewVector(h.Rows)
	x := NewVector(h.Rows)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	var ferr error
	allocs := testing.AllocsPerRun(20, func() {
		ata.Compute(as)
		if err := sc.Factorize(h, 0, 1e-12); err != nil {
			ferr = err
			return
		}
		sc.Solve(b)
		sc.SolveRefined(h, b, x)
		h.MulVec(x, b)
		h.MulVecTAdd(x, 1, b)
		h.Residual(x, b, x)
		h.ResidualAdd(x, b, x, b)
		if err := sc.FactorizeQuasiDef(h, 1e-10); err != nil {
			ferr = err
		}
	})
	if ferr != nil {
		t.Fatal(ferr)
	}
	if allocs != 0 {
		t.Fatalf("hotpath refactorization allocated %.1f times per run, want 0", allocs)
	}
}
