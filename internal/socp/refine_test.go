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
// refinement on small random problems factored at W = I, once with the
// cold start's tolerance (forceTol 0) and once with a nonzero forcing
// tolerance, as the run loop sets it from the best iterate's score. The
// replay records the KKT residual after each factored solve; from it
// follows where the rule must stop: at the first residual that meets
// max(refineTol, forceTol)·(1 + ‖b‖∞), at the first that does not improve
// on the best so far, or at the maxRefineChecks-th. The solve must then
//
//   - return a residual no larger than that of its first factored solve,
//     namely the best residual it checked;
//   - stop as soon as a checked residual meets the tolerance;
//   - make exactly as many factored solves as residual checks, so no
//     correction is computed and then thrown away unchecked.
//
// The nonzero tolerance is an iteration's whose best iterate scores 1e-2.
// Two thirds of the problems spread their column norms over three or six
// orders of magnitude, which slows refinement enough to reach the cap, and
// a sixth of them is factored with a 1e-8 regularization large enough that
// refinement can stall above the forcing tolerance; the test insists that
// every stopping reason occurs at each tolerance.
func TestRefinementStopRule(t *testing.T) {
	const (
		metTol = iota
		stalled
		capped
	)
	for _, force := range []float64{0, refineForcing * 1e-2} {
		var stops [3]int
		for seed := int64(0); seed < 60; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 4 + rng.Intn(6)
			p := withCSR(randomProblem(rng, n, n+rng.Intn(6), rng.Intn(3), 0.5))
			if spread := []float64{0, 0, 1.5, 1.5, 3, 3}[seed%6]; spread > 0 {
				g := p.GSparse
				for k, j := range g.ColIdx {
					g.Val[k] *= math.Pow(10, float64(j%3)*spread)
				}
			}
			st := unscaledState(p)
			st.forceTol = force
			if seed%6 == 5 {
				st.opt.KKTReg = 1e-8
			}
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
			tol := max(refineTol, force) * (1 + max(linalg.NormInf(bx), linalg.NormInf(bz)))

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
				t.Errorf("forceTol %g seed %d: %d factored solves for %d residual checks (stop reason %d, residuals fell to %.3g, tolerance %.3g)",
					force, seed, solves, checks, reason, best, tol)
			}
			f.residual(bx, bz, dx, dz, nil)
			if got := kktResidual(ws); got != best || got > first {
				t.Errorf("forceTol %g seed %d: returned residual %.3g, want the best checked %.3g (first %.3g)", force, seed, got, best, first)
			}
		}
		if stops[metTol] == 0 || stops[stalled] == 0 || stops[capped] == 0 {
			t.Fatalf("forceTol %g: stopping reasons met tolerance/stalled/capped = %v: every reason must occur", force, stops)
		}
		t.Logf("forceTol %g: stopping reasons met tolerance/stalled/capped = %v", force, stops)
	}
}
