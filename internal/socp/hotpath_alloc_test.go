package socp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cone"
	"repro/internal/linalg"
)

// interiorPoint fills v with a strictly interior point of dims.
func interiorPoint(rng *rand.Rand, dims cone.Dims, v linalg.Vector) {
	for i := 0; i < dims.NonNeg; i++ {
		v[i] = 0.1 + rng.Float64()
	}
	off := dims.NonNeg
	for _, q := range dims.SOC {
		var tail float64
		for i := 1; i < q; i++ {
			v[off+i] = rng.NormFloat64()
			tail += v[off+i] * v[off+i]
		}
		v[off] = math.Sqrt(tail) + 0.1 + rng.Float64()
		off += q
	}
}

// allocCase is one shape of the factorization pipeline, with a problem that
// takes it; the allocation guards and the warm-start tests run each shape.
type allocCase struct {
	name  string
	p     *Problem
	split bool // the problem has a row longer than maxNormalEqRow
}

// allocCases covers both shapes of the factorization pipeline: plain
// normal equations and a split coupling row.
func allocCases(rng *rand.Rand) []allocCase {
	return []allocCase{
		{"plain", randomProblem(rng, 14, 10, 2, 0.1), false},
		{"split", longRowProblem(rng, 14, 12, 2), true},
	}
}

// refactorize runs one iteration's numeric work on a pipeline, as
// factorSparse does: NT rescale of the fixed W⁻¹G pattern, AᵀA refill,
// regularization scale, KKT refill (split rows), numeric
// refactorization and removal of the shift for refinement.
func refactorize(sv *sparseView, ne *neFactor, w *cone.Scaling) error {
	sv.fillScaled(w)
	ne.ata.Compute(sv.gs)
	reg := 1e-10 * (1 + ne.hMax(sv.gs))
	if ne.kkt == nil {
		return ne.chol.Factorize(ne.ata.Result, reg, reg)
	}
	ne.fillKKT(sv.gs, reg)
	if err := ne.chol.FactorizeQuasiDef(ne.kkt, reg); err != nil {
		return err
	}
	ne.unshift()
	return nil
}

// interiorScaling returns the NT scaling of a random interior pair.
func interiorScaling(t *testing.T, rng *rand.Rand, dims cone.Dims) *cone.Scaling {
	t.Helper()
	m := dims.Dim()
	s, z := linalg.NewVector(m), linalg.NewVector(m)
	interiorPoint(rng, dims, s)
	interiorPoint(rng, dims, z)
	w, err := cone.NewScaling(dims, s, z)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestPatternCacheReacquireAllocFree pins the steady state of the pattern
// cache: once a pipeline for a pattern has been built and released, the
// acquire → refactorize → release cycle a cached
// sweep solve performs is allocation-free. (The first acquire of a pattern
// pays the build; every later one must not.)
func TestPatternCacheReacquireAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, tc := range allocCases(rng) {
		for _, backend := range []Factorization{FactorSparse, FactorSupernodal} {
			sv := newSparseView(withCSR(tc.p))
			pc := NewPatternCache()
			w := interiorScaling(t, rng, tc.p.Dims)
			cycle := func() error {
				ne := pc.acquire(sv, backend, 1)
				defer pc.release(ne)
				if (ne.nd > 0) != tc.split {
					t.Fatalf("%s: pipeline has %d split rows", tc.name, ne.nd)
				}
				return refactorize(sv, ne, w)
			}
			if err := cycle(); err != nil { // build + register the pattern
				t.Fatal(err)
			}
			var ferr error
			allocs := testing.AllocsPerRun(20, func() {
				if err := cycle(); err != nil {
					ferr = err
				}
			})
			if ferr != nil {
				t.Fatal(ferr)
			}
			if allocs != 0 {
				t.Fatalf("%s backend=%v: cached reacquire cycle allocated %.1f times per run, want 0", tc.name, backend, allocs)
			}
			if hits, misses := pc.Stats(); hits < 20 || misses != 1 {
				t.Fatalf("%s backend=%v: stats hits=%d misses=%d", tc.name, backend, hits, misses)
			}
		}
	}
}

// TestPerIterationRefactorizationAllocFree pins the zero-alloc guarantee of
// the sparse per-iteration pipeline end to end: NT rescale of the fixed
// W⁻¹G pattern, AᵀA refill, KKT refill and numeric refactorization — for
// the plain normal equations and for the quasi-definite KKT matrix with
// split rows — allocate nothing after the first
// iteration's symbolic analysis. The hotalloc analyzer checks only the
// bodies of //bbvet:hotpath functions; this guard and
// TestSolveAllocsIndependentOfIterations are the only check of the calls
// those functions make.
func TestPerIterationRefactorizationAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range allocCases(rng) {
		for _, backend := range []Factorization{FactorSparse, FactorSupernodal} {
			sv := newSparseView(withCSR(tc.p))
			ne := sv.normalEq(nil, backend, 1)
			if (ne.nd > 0) != tc.split {
				t.Fatalf("%s: pipeline has %d split rows", tc.name, ne.nd)
			}
			w := interiorScaling(t, rng, tc.p.Dims)
			if err := refactorize(sv, ne, w); err != nil { // warm-up
				t.Fatal(err)
			}
			var ferr error
			allocs := testing.AllocsPerRun(20, func() {
				if err := refactorize(sv, ne, w); err != nil {
					ferr = err
				}
			})
			if ferr != nil {
				t.Fatal(ferr)
			}
			if allocs != 0 {
				t.Fatalf("%s backend=%v: per-iteration refactorization allocated %.1f times per run, want 0", tc.name, backend, allocs)
			}
		}
	}
}

// TestSolveAllocsIndependentOfIterations pins the zero-alloc guarantee of a
// whole interior-point iteration — NT scaling update, refactorization, both
// Newton solves with their refinement passes, step and back-off — for every
// pipeline shape on both backends: a solve cut at 3 iterations allocates
// exactly as often as one cut at 10. Every problem needs more than 10
// iterations, so both solves really run their full allowance.
func TestSolveAllocsIndependentOfIterations(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, tc := range []allocCase{
		{"plain", randomProblem(rng, 30, 40, 8, 0.02), false},
		{"split", longRowProblem(rng, 40, 30, 6), true},
	} {
		if split, _, _, _ := KKTStructure(withCSR(tc.p)); (split > 0) != tc.split {
			t.Fatalf("%s: %d rows split off H", tc.name, split)
		}
		for _, backend := range []Factorization{FactorSparse, FactorSupernodal} {
			sol, err := Solve(tc.p, Options{Factorization: backend})
			if err != nil {
				t.Fatal(err)
			}
			if sol.Iterations <= 10 {
				t.Fatalf("%s backend=%v: converged in %d iterations, the guard needs more than 10", tc.name, backend, sol.Iterations)
			}
			allocs := func(maxIter int) float64 {
				return testing.AllocsPerRun(20, func() {
					if _, err := Solve(tc.p, Options{Factorization: backend, MaxIter: maxIter}); err != nil {
						t.Fatal(err)
					}
				})
			}
			if a3, a10 := allocs(3), allocs(10); a3 != a10 {
				t.Fatalf("%s backend=%v: %.0f allocations per solve at 3 iterations, %.0f at 10: an iteration allocates", tc.name, backend, a3, a10)
			}
		}
	}
}
