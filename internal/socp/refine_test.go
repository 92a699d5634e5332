package socp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// kktResidual is the ∞-norm of the KKT residual kktFactor.residual left in
// the workspace, the quantity kktFactor.solve's stopping rule tests.
func kktResidual(ws *workspace) float64 {
	return max(linalg.NormInf(ws.r1), linalg.NormInf(ws.r2))
}

// TestRefinementStopRule checks kktFactor.solve against a replay of its
// refinement on small random problems factored at W = I. The replay records
// the KKT residual after each factored solve; from it follows where the rule
// must stop: at the first residual that meets refineTol·(1 + ‖b‖∞), at the
// first that does not improve on the best so far, or at the
// maxRefineChecks-th. The solve must then
//
//   - return a residual no larger than that of its first factored solve,
//     namely the best residual it checked;
//   - stop as soon as a checked residual meets the tolerance;
//   - make exactly as many factored solves as residual checks, so no
//     correction is computed and then thrown away unchecked.
//
// Half the problems spread their column norms over three orders of magnitude,
// which slows refinement enough to reach the cap; the test insists that
// every stopping reason occurs.
func TestRefinementStopRule(t *testing.T) {
	const (
		metTol = iota
		stalled
		capped
	)
	var stops [3]int
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(6)
		p := withCSR(randomProblem(rng, n, n+rng.Intn(6), rng.Intn(3), 0.5))
		if seed%4 >= 2 {
			g := p.GSparse
			for k, j := range g.ColIdx {
				g.Val[k] *= math.Pow(10, float64(j%3)*1.5)
			}
		}
		st := unscaledState(p)
		f, err := st.factor(nil) // W = I
		if err != nil {
			t.Fatal(err)
		}
		bx, bz := linalg.NewVector(st.n), linalg.NewVector(st.m)
		for _, v := range []linalg.Vector{bx, bz} {
			for i := range v {
				v[i] = rng.NormFloat64()
			}
		}
		tol := refineTol * (1 + max(linalg.NormInf(bx), linalg.NormInf(bz)))

		// Replay: residual checks of the refinement, in the solve's order.
		ws := st.ws
		x, z := linalg.NewVector(st.n), linalg.NewVector(st.m)
		cx, cz := linalg.NewVector(st.n), linalg.NewVector(st.m)
		f.solveOnce(bx, bz, x, z)
		first, best := math.NaN(), math.Inf(1)
		checks, reason := 0, capped
		for checks < maxRefineChecks {
			f.residual(bx, bz, x, z, nil)
			res := kktResidual(ws)
			checks++
			if checks == 1 {
				first = res
			}
			if !(res < best) {
				reason = stalled
				break
			}
			best = res
			if res <= tol {
				reason = metTol
				break
			}
			f.solveOnce(ws.r1, ws.r2, cx, cz)
			x.AddScaled(1, cx)
			z.AddScaled(1, cz)
		}
		if reason == metTol && checks == maxRefineChecks {
			reason = capped // the cap would have stopped it anyway
		}
		stops[reason]++

		before := st.linearSolves
		dx, dz := f.solve(bx, bz)
		if solves := st.linearSolves - before; solves != checks {
			t.Errorf("seed %d: %d factored solves for %d residual checks (stop reason %d, residuals fell to %.3g, tolerance %.3g)",
				seed, solves, checks, reason, best, tol)
		}
		f.residual(bx, bz, dx, dz, nil)
		if got := kktResidual(ws); got != best || got > first {
			t.Errorf("seed %d: returned residual %.3g, want the best checked %.3g (first %.3g)", seed, got, best, first)
		}
	}
	if stops[metTol] == 0 || stops[stalled] == 0 || stops[capped] == 0 {
		t.Fatalf("stopping reasons met tolerance/stalled/capped = %v: every reason must occur", stops)
	}
	t.Logf("stopping reasons met tolerance/stalled/capped = %v", stops)
}
