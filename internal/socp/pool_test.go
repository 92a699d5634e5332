package socp_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/gen"
	"repro/internal/linalg"
	"repro/internal/socp"
)

// chainProblem returns the Algorithm 1 program of a chain of the given
// length with every buffer capped at maxCap containers. Chains of one
// length share G's pattern at every cap; only cap rows of h differ.
func chainProblem(t *testing.T, tasks, maxCap int) *socp.Problem {
	t.Helper()
	p, err := core.BuildProblem(gen.Chain(gen.ChainOptions{Tasks: tasks, MaxContainers: maxCap}))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// sameSolution reports where two solutions differ bit for bit: status,
// iteration and linear-solve counts, objective values and residuals, and
// every entry of X, S and Z.
func sameSolution(got, want *socp.Solution) error {
	if got.Status != want.Status || got.Iterations != want.Iterations || got.LinearSolves != want.LinearSolves {
		return fmt.Errorf("status/iterations/solves %v/%d/%d, want %v/%d/%d",
			got.Status, got.Iterations, got.LinearSolves, want.Status, want.Iterations, want.LinearSolves)
	}
	for _, f := range [][2]float64{
		{got.PrimalObj, want.PrimalObj}, {got.DualObj, want.DualObj}, {got.Gap, want.Gap},
		{got.RelGap, want.RelGap}, {got.PrimalRes, want.PrimalRes}, {got.DualRes, want.DualRes},
	} {
		if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
			return fmt.Errorf("diagnostic %v, want %v", f[0], f[1])
		}
	}
	for k, v := range [][2]linalg.Vector{{got.X, want.X}, {got.S, want.S}, {got.Z, want.Z}} {
		if len(v[0]) != len(v[1]) {
			return fmt.Errorf("vector %d has length %d, want %d", k, len(v[0]), len(v[1]))
		}
		for i := range v[1] {
			if math.Float64bits(v[0][i]) != math.Float64bits(v[1][i]) {
				return fmt.Errorf("vector %d entry %d = %v, want %v", k, i, v[0][i], v[1][i])
			}
		}
	}
	return nil
}

// snapshot copies a solution's vectors.
func snapshot(s *socp.Solution) *socp.Solution {
	c := *s
	c.X, c.S, c.Z = s.X.Clone(), s.S.Clone(), s.Z.Clone()
	return &c
}

// TestPooledSpaceIsolation pins what a pooled solve space may not carry
// from one solve into the next. Solve A and then solve B, a problem with
// the same pattern and other cap rows, on one cache: A's returned vectors
// stay as they were, and B — cold, and warm-started from A — is bit-identical
// to an uncached solve. A solve that a NaN injected into a KKT right-hand
// side throws off mid-iteration leaves its space full of NaNs; the next
// solve on that space is bit-identical too.
func TestPooledSpaceIsolation(t *testing.T) {
	a, b := chainProblem(t, 20, 4), chainProblem(t, 20, 7)
	solve := func(p *socp.Problem, opt socp.Options) *socp.Solution {
		t.Helper()
		sol, err := socp.Solve(p, opt)
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	coldB := solve(b, socp.Options{})
	warm := solve(a, socp.Options{}).Warm()
	warmKept := &socp.WarmStart{X: warm.X.Clone(), S: warm.S.Clone(), Z: warm.Z.Clone()}
	warmB := solve(b, socp.Options{WarmStart: warm})

	pc := socp.NewPatternCache()
	cached := socp.Options{Cache: pc}
	solA := solve(a, cached)
	keptA := snapshot(solA)
	if err := sameSolution(solve(b, cached), coldB); err != nil {
		t.Fatalf("cold B after A on one cache: %v", err)
	}
	if err := sameSolution(solA, keptA); err != nil {
		t.Fatalf("A's solution changed under B's solve: %v", err)
	}
	cached.WarmStart = warm
	if err := sameSolution(solve(b, cached), warmB); err != nil {
		t.Fatalf("warm B after A on one cache: %v", err)
	}
	if err := sameSolution(&socp.Solution{X: warm.X, S: warm.S, Z: warm.Z}, &socp.Solution{X: warmKept.X, S: warmKept.S, Z: warmKept.Z}); err != nil {
		t.Fatalf("the solve wrote the caller's warm start: %v", err)
	}
	cached.WarmStart = nil

	// The fault hits the 12th factored solve, a few iterations in.
	deactivate := faultinject.Activate(faultinject.Rule{Site: faultinject.SiteKKTRHS, Kind: faultinject.KindNaN, After: 11, Count: 1})
	faulted := solve(a, cached)
	deactivate()
	if sameSolution(faulted, keptA) == nil {
		t.Fatal("the injected NaN did not change the solve; the test exercises nothing")
	}
	if err := sameSolution(solve(b, cached), coldB); err != nil {
		t.Fatalf("cold B after a faulted solve on one cache: %v", err)
	}
	if hits, misses := pc.Stats(); misses != 1 || hits != 4 {
		t.Fatalf("hits=%d misses=%d, want 4/1: the solves did not share one space", hits, misses)
	}
}

// TestCachedSolveAllocatesOnlyItsResult is the allocation guard of the
// pooled solve space: after one warm-up solve on a cache, a solve of the
// same pattern, cold or warm-started, allocates little beyond its
// Solution's X, S and Z — at most allocFactor times their bytes (runtime
// TotalAlloc, the least of five runs), the same factor on chain-20 and
// chain-100, so what a solve allocates cannot grow with the problem
// except through its result.
func TestCachedSolveAllocatesOnlyItsResult(t *testing.T) {
	const allocFactor = 1.5
	for _, tasks := range []int{20, 100} {
		p, q := chainProblem(t, tasks, 4), chainProblem(t, tasks, 6)
		pc := socp.NewPatternCache()
		warmup, err := socp.Solve(p, socp.Options{Cache: pc})
		if err != nil {
			t.Fatal(err)
		}
		result := 8 * (len(warmup.X) + len(warmup.S) + len(warmup.Z))
		for _, opt := range []socp.Options{
			{Cache: pc},
			{Cache: pc, WarmStart: warmup.Warm()},
		} {
			least := uint64(math.MaxUint64)
			var ms runtime.MemStats
			for run := 0; run < 5; run++ {
				runtime.ReadMemStats(&ms)
				before := ms.TotalAlloc
				sol, err := socp.Solve(q, opt)
				runtime.ReadMemStats(&ms)
				if err != nil || sol.Status != socp.StatusOptimal {
					t.Fatalf("chain-%d: status %v, err %v", tasks, sol.Status, err)
				}
				least = min(least, ms.TotalAlloc-before)
			}
			warm := opt.WarmStart != nil
			t.Logf("chain-%d warm=%v: %d bytes allocated, result vectors %d bytes (%.2fx)", tasks, warm, least, result, float64(least)/float64(result))
			if float64(least) > allocFactor*float64(result) {
				t.Fatalf("chain-%d warm=%v: a cached solve allocated %d bytes, more than %.1f× its result vectors' %d",
					tasks, warm, least, allocFactor, result)
			}
		}
	}
}
