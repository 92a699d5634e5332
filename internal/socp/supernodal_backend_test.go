package socp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// TestSupernodalBackendMatchesSparse pins the supernodal backend against the
// simplicial one on randomized feasible instances. Both factor the same
// normal-equations (or reduced-KKT) matrix under the same AMD ordering, but
// the blocked kernel accumulates inner products in a different association
// order, so iterates round differently; the test checks the invariants —
// both certify optimality and the optimal values agree tightly.
func TestSupernodalBackendMatchesSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 30; trial++ {
		n := 6 + rng.Intn(12)
		p := randomProblem(rng, n, 4+rng.Intn(6), rng.Intn(3), 0.4)
		sp, err := Solve(p, Options{Factorization: FactorSparse})
		if err != nil {
			t.Fatalf("trial %d: sparse solve: %v", trial, err)
		}
		sn, err := Solve(p, Options{Factorization: FactorSupernodal})
		if err != nil {
			t.Fatalf("trial %d: supernodal solve: %v", trial, err)
		}
		if sp.Status != StatusOptimal || sn.Status != StatusOptimal {
			t.Fatalf("trial %d: status sparse=%v supernodal=%v", trial, sp.Status, sn.Status)
		}
		scale := math.Max(1, math.Abs(sp.PrimalObj))
		if d := math.Abs(sp.PrimalObj - sn.PrimalObj); d > 1e-6*scale {
			t.Fatalf("trial %d: objective differs by %g (sparse %v, supernodal %v)",
				trial, d, sp.PrimalObj, sn.PrimalObj)
		}
	}
}

// TestSupernodalSolveParallelBitwise pins the scheduling-only contract at the
// solver level: a supernodal solve at any FactorWorkers setting returns the
// same iterates bit for bit, because parallelism changes which goroutine
// factors a panel but never the deterministic update order within one.
func TestSupernodalSolveParallelBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	p := randomProblem(rng, 90, 70, 5, 0.06)
	base, err := Solve(p, Options{Factorization: FactorSupernodal, FactorWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := Solve(p, Options{Factorization: FactorSupernodal, FactorWorkers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Iterations != base.Iterations {
			t.Fatalf("workers=%d: iterations %d, want %d", workers, got.Iterations, base.Iterations)
		}
		for i := range base.X {
			// Exact float comparison: bitwise reproducibility is the property under test.
			if got.X[i] != base.X[i] {
				t.Fatalf("workers=%d: x[%d] = %v, want bitwise %v", workers, i, got.X[i], base.X[i])
			}
		}
	}
}

// TestGSparseMatchesDenseG checks that a problem handed over in CSR form
// solves bit-identically to the same problem with a dense G: the sparse
// carrier changes how the constraint matrix is stored, never a single
// floating-point operation of the solve.
func TestGSparseMatchesDenseG(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 20; trial++ {
		p := randomProblem(rng, 5+rng.Intn(10), 3+rng.Intn(5), rng.Intn(3), 0.4)
		q := *p
		q.GSparse = linalg.NewSparseFromDense(p.G)
		q.G = nil
		for _, backend := range []Factorization{FactorSparse, FactorSupernodal} {
			dense, err := Solve(p, Options{Factorization: backend})
			if err != nil {
				t.Fatalf("trial %d: dense-G solve: %v", trial, err)
			}
			sparse, err := Solve(&q, Options{Factorization: backend})
			if err != nil {
				t.Fatalf("trial %d: CSR-G solve: %v", trial, err)
			}
			if dense.Iterations != sparse.Iterations {
				t.Fatalf("trial %d backend=%v: iterations dense=%d csr=%d",
					trial, backend, dense.Iterations, sparse.Iterations)
			}
			for i := range dense.X {
				// Exact float comparison: bitwise equivalence of the two carriers is the property under test.
				if dense.X[i] != sparse.X[i] {
					t.Fatalf("trial %d backend=%v: x[%d] dense=%v csr=%v",
						trial, backend, i, dense.X[i], sparse.X[i])
				}
			}
		}
	}
}

// TestValidateGCarriers: exactly one of G and GSparse must be set.
func TestValidateGCarriers(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	p := randomProblem(rng, 6, 4, 1, 0.5)
	gs := linalg.NewSparseFromDense(p.G)

	both := *p
	both.GSparse = gs
	if err := both.Validate(); err == nil {
		t.Fatal("Validate accepted a problem with both G and GSparse")
	}
	neither := *p
	neither.G = nil
	if err := neither.Validate(); err == nil {
		t.Fatal("Validate accepted a problem with neither G nor GSparse")
	}
	csr := *p
	csr.G = nil
	csr.GSparse = gs
	if err := csr.Validate(); err != nil {
		t.Fatalf("Validate rejected a CSR-only problem: %v", err)
	}
}

// TestResolveFactorization pins the routing: explicit choices pass through
// untouched, and auto runs the simplicial backend at every dimension, on
// both sides of the old 768-row crossover and far above it.
func TestResolveFactorization(t *testing.T) {
	for _, f := range []Factorization{FactorSparse, FactorSupernodal} {
		if got := ResolveFactorization(f, 10); got != f {
			t.Fatalf("ResolveFactorization(%v, 10) = %v, want passthrough", f, got)
		}
		if got := ResolveFactorization(f, 1e6); got != f {
			t.Fatalf("ResolveFactorization(%v, 1e6) = %v, want passthrough", f, got)
		}
	}
	for _, dim := range []int{0, 767, 768, 1e6} {
		if got := ResolveFactorization(FactorAuto, dim); got != FactorSparse {
			t.Fatalf("ResolveFactorization(auto, %d) = %v, want sparse", dim, got)
		}
	}
}

// TestPatternCacheBackendKeying: a released simplicial pipeline must never
// satisfy a supernodal acquire of the same pattern (and vice versa) — the
// pooled numeric workspace is built for one factorization layout.
func TestPatternCacheBackendKeying(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	p := randomProblem(rng, 14, 10, 2, 0.3)
	sv := newSparseView(withCSR(p))
	pc := NewPatternCache()

	fsp := pc.acquire(sv, FactorSparse, 1)
	if _, ok := fsp.chol.(*linalg.SparseCholesky); !ok {
		t.Fatalf("sparse acquire built %T", fsp.chol)
	}
	pc.release(fsp)

	fsn := pc.acquire(sv, FactorSupernodal, 2)
	if _, ok := fsn.chol.(*linalg.SupernodalCholesky); !ok {
		t.Fatalf("supernodal acquire served %T — backend missing from the pool key", fsn.chol)
	}
	if fsn == fsp {
		t.Fatal("supernodal acquire returned the pooled simplicial pipeline")
	}
	pc.release(fsn)
	if hits, misses := pc.Stats(); hits != 0 || misses != 2 {
		t.Fatalf("stats hits=%d misses=%d, want 0 hits / 2 misses across backends", hits, misses)
	}

	again := pc.acquire(sv, FactorSupernodal, 4)
	if again != fsn {
		t.Fatal("supernodal reacquire missed its own pooled pipeline")
	}
	if got := again.chol.(*linalg.SupernodalCholesky).Parallelism(); got != 4 {
		t.Fatalf("pooled hit kept stale parallelism %d, want refresh to 4", got)
	}
}
