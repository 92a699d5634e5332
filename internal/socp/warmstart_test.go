package socp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// perturbedProblem returns a copy of p with h nudged slightly — the shape
// of a neighboring sweep point (same pattern, nearby data).
func perturbedProblem(p *Problem, eps float64) *Problem {
	q := &Problem{C: p.C.Clone(), G: p.G.Clone(), H: p.H.Clone(), Dims: p.Dims}
	for i := range q.H {
		q.H[i] += eps * (1 + math.Abs(q.H[i]))
	}
	if p.A != nil {
		q.A = p.A.Clone()
		q.B = p.B.Clone()
	}
	return q
}

// TestWarmStartMatchesColdSolution: a warm-started solve must converge to
// the same optimum as the cold solve of the same problem, in fewer
// iterations (warm-starting from the problem's own solution is the
// best-case neighbor).
func TestWarmStartMatchesColdSolution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, eq := range []bool{false, true} {
		p := randomProblem(rng, 16, 12, 2, 0.4, eq)
		cold, err := Solve(p, Options{})
		if err != nil || cold.Status != StatusOptimal {
			t.Fatalf("eq=%v: cold solve failed: %v %v", eq, cold.Status, err)
		}
		warm, err := Solve(p, Options{WarmStart: cold.Warm()})
		if err != nil || warm.Status != StatusOptimal {
			t.Fatalf("eq=%v: warm solve failed: %v %v", eq, warm.Status, err)
		}
		if d := math.Abs(warm.PrimalObj - cold.PrimalObj); d > 1e-6*(1+math.Abs(cold.PrimalObj)) {
			t.Fatalf("eq=%v: warm optimum %g differs from cold %g", eq, warm.PrimalObj, cold.PrimalObj)
		}
		for i := range cold.X {
			if d := math.Abs(warm.X[i] - cold.X[i]); d > 1e-4*(1+math.Abs(cold.X[i])) {
				t.Fatalf("eq=%v: x[%d]: warm %g vs cold %g", eq, i, warm.X[i], cold.X[i])
			}
		}
		if warm.Iterations >= cold.Iterations {
			t.Errorf("eq=%v: warm start took %d iterations, cold %d — no speedup",
				eq, warm.Iterations, cold.Iterations)
		}
	}
}

// TestWarmStartNeighborProblem warm-starts a slightly perturbed problem —
// the actual sweep scenario — and checks correctness plus iteration
// reduction.
func TestWarmStartNeighborProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	p := randomProblem(rng, 20, 16, 2, 0.4, false)
	base, err := Solve(p, Options{})
	if err != nil || base.Status != StatusOptimal {
		t.Fatalf("base solve failed: %v %v", base.Status, err)
	}
	q := perturbedProblem(p, 1e-3)
	cold, err := Solve(q, Options{})
	if err != nil || cold.Status != StatusOptimal {
		t.Fatalf("cold neighbor solve failed: %v %v", cold.Status, err)
	}
	warm, err := Solve(q, Options{WarmStart: base.Warm()})
	if err != nil || warm.Status != StatusOptimal {
		t.Fatalf("warm neighbor solve failed: %v %v", warm.Status, err)
	}
	if d := math.Abs(warm.PrimalObj - cold.PrimalObj); d > 1e-6*(1+math.Abs(cold.PrimalObj)) {
		t.Fatalf("warm optimum %g differs from cold %g", warm.PrimalObj, cold.PrimalObj)
	}
	if warm.Iterations >= cold.Iterations {
		t.Errorf("neighbor warm start took %d iterations, cold %d — no speedup",
			warm.Iterations, cold.Iterations)
	}
}

// TestWarmStartInvalidFallsBackCold: mismatched dimensions and non-finite
// entries must be ignored, yielding exactly the cold solve.
func TestWarmStartInvalidFallsBackCold(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	p := randomProblem(rng, 12, 10, 1, 0.5, false)
	cold, err := Solve(p, Options{})
	if err != nil || cold.Status != StatusOptimal {
		t.Fatalf("cold solve failed: %v %v", cold.Status, err)
	}
	m := p.Dims.Dim()
	bad := []*WarmStart{
		{X: linalg.NewVector(3), S: linalg.NewVector(m), Z: linalg.NewVector(m), Y: linalg.NewVector(0)},
		func() *WarmStart {
			w := cold.Warm()
			w.S[0] = math.NaN()
			return w
		}(),
		func() *WarmStart {
			w := cold.Warm()
			w.Z[1] = math.Inf(1)
			return w
		}(),
	}
	for k, w := range bad {
		got, err := Solve(p, Options{WarmStart: w})
		if err != nil || got.Status != StatusOptimal {
			t.Fatalf("bad warm %d: solve failed: %v %v", k, got.Status, err)
		}
		if got.Iterations != cold.Iterations {
			t.Errorf("bad warm %d: took %d iterations, cold %d — fallback not bit-identical",
				k, got.Iterations, cold.Iterations)
		}
		for i := range cold.X {
			// Exact float comparison: fallback must reproduce the cold solve bitwise.
			if got.X[i] != cold.X[i] {
				t.Fatalf("bad warm %d: x[%d] differs from cold solve", k, i)
			}
		}
	}
}

// TestPatternCacheBitIdentical: solving through a PatternCache — cold pool,
// then pooled reuse across several neighboring problems — must reproduce
// the uncached solves bit for bit, for both the normal-equations and the
// reduced-KKT paths.
func TestPatternCacheBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, eq := range []bool{false, true} {
		p := randomProblem(rng, 16, 12, 2, 0.4, eq)
		pc := NewPatternCache()
		for round := 0; round < 3; round++ {
			q := perturbedProblem(p, float64(round)*1e-3)
			plain, err := Solve(q, Options{})
			if err != nil {
				t.Fatalf("eq=%v round %d: plain solve error: %v", eq, round, err)
			}
			cached, err := Solve(q, Options{Cache: pc})
			if err != nil {
				t.Fatalf("eq=%v round %d: cached solve error: %v", eq, round, err)
			}
			if cached.Status != plain.Status || cached.Iterations != plain.Iterations {
				t.Fatalf("eq=%v round %d: cached solve diverged: %v/%d vs %v/%d",
					eq, round, cached.Status, cached.Iterations, plain.Status, plain.Iterations)
			}
			for i := range plain.X {
				// Exact float comparison: cached solves must be bit-identical to uncached.
				if cached.X[i] != plain.X[i] {
					t.Fatalf("eq=%v round %d: x[%d] differs through cache", eq, round, i)
				}
			}
		}
		if hits, misses := pc.Stats(); misses != 1 || hits != 2 {
			t.Errorf("eq=%v: cache stats hits=%d misses=%d, want 2/1", eq, hits, misses)
		}
	}
}
