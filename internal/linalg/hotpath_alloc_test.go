package linalg

import (
	"math/rand"
	"slices"
	"testing"
)

// TestHotpathRefactorizationAllocFree requires that the per-iteration
// kernels of this package — the AᵀA refill, the numeric LDLᵀ
// refactorization on both backends (the SPD kernel with its static-shift
// retry, the quasi-definite kernel with its pivot floor), the triangular
// solves, and the CSR products and residuals — do not allocate once the
// symbolic analysis has been done. It measures the whole call tree, so it
// is the only allocation check of these kernels and of every call they
// make.
func TestHotpathRefactorizationAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	_, as := randomSparseSPD(rng, 60, 0.1)
	ata := NewSparseAtA(as)
	ata.Compute(as)
	h := ata.Result
	sc := NewSparseCholesky(h, nil)
	// indef has a negative diagonal entry, so Factorize meets a
	// non-positive pivot and retries with an extra shift. degen has row and
	// column 0 zeroed but for a tiny negative diagonal, so FactorizeQuasiDef
	// floors that pivot at −eps.
	const eps = 1e-10
	indef, degen := h.Clone(), h.Clone()
	for p := h.RowPtr[0]; p < h.RowPtr[1]; p++ {
		if h.ColIdx[p] == 0 {
			indef.Val[p] = -1
		}
	}
	for r := 0; r < h.Rows; r++ {
		for p := h.RowPtr[r]; p < h.RowPtr[r+1]; p++ {
			switch {
			case r == 0 && h.ColIdx[p] == 0:
				degen.Val[p] = -eps / 2
			case r == 0 || h.ColIdx[p] == 0:
				degen.Val[p] = 0
			}
		}
	}
	b := NewVector(h.Rows)
	x := NewVector(h.Rows)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	for _, f := range []SparseLDLT{sc, sc.Symbolic().NewSupernodal(1)} {
		if err := f.Factorize(h, 0, 1e-12); err != nil {
			t.Fatal(err)
		}
		var (
			ferr    error
			shift   float64
			floored bool
		)
		allocs := testing.AllocsPerRun(20, func() {
			ata.Compute(as)
			if err := f.Factorize(h, 0, 1e-12); err != nil {
				ferr = err
				return
			}
			f.Solve(b)
			f.SolveRefined(h, b, x)
			h.MulVec(x, b)
			h.MulVecTAdd(x, 1, b)
			h.Residual(x, b, x)
			h.ResidualAdd(x, b, x, b)
			if err := f.FactorizeQuasiDef(h, eps); err != nil {
				ferr = err
				return
			}
			if err := f.Factorize(indef, 0, 1e-3); err != nil {
				ferr = err
				return
			}
			shift = f.Shift()
			if err := f.FactorizeQuasiDef(degen, eps); err != nil {
				ferr = err
				return
			}
			floored = slices.Contains(pivots(f), -eps)
		})
		if ferr != nil {
			t.Fatalf("%T: %v", f, ferr)
		}
		if shift <= 0 {
			t.Fatalf("%T: Factorize of an indefinite matrix took no extra shift", f)
		}
		if !floored {
			t.Fatalf("%T: FactorizeQuasiDef floored no pivot of a singular matrix", f)
		}
		if allocs != 0 {
			t.Fatalf("%T: hotpath refactorization allocated %.1f times per run, want 0", f, allocs)
		}
	}
}

// pivots returns the diagonal D of a factorization.
func pivots(f SparseLDLT) Vector {
	switch f := f.(type) {
	case *SparseCholesky:
		return f.d
	case *SupernodalCholesky:
		return f.d
	}
	return nil
}
