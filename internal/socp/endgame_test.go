package socp_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/socp"
	"repro/internal/taskgraph"
)

// TestEndgameMeetsFullTolerances solves the benchmark's larger cold
// instances and the paper's T1 and T2 at every cap from 1 to 10, and
// requires each solve to end optimal at the full tolerances (FeasTol,
// AbsTol/RelTol), not through the reduced ones of the best-iterate
// fallback. The refinement of the KKT solves loosens with the iterate's
// residuals (kktFactor.solve's forcing term); this guards against a
// forcing term that stays loose into the endgame and leaves the final
// iterate short of the accuracy the stopping rule asks for.
//
// Five instances end on the reduced tolerances, with the forcing term and
// (but for T1 at cap 6) without it: in their last iterations the KKT
// solves' first-block residual stalls near 1e-7 within maxRefineChecks, the
// dual residual rises above FeasTol once the gap has closed, and the solve
// reports its best iterate. T1 at cap 6 met the full tolerances without
// the forcing term by a margin that every forcing term tried removed (η
// from 1e-6 to 1e-4, and η·σ² as well), though none is binding in its
// last iterations. The test pins that they still end optimal and fails once
// one of them no longer needs the fallback, so that no exception outlives
// its defect.
func TestEndgameMeetsFullTolerances(t *testing.T) {
	cfgs := map[string]*taskgraph.Config{
		"chain-100":  gen.Chain(gen.ChainOptions{Tasks: 100}),
		"chain-380":  gen.Chain(gen.ChainOptions{Tasks: 380}),
		"fanout-200": gen.FanOut(gen.FanOutOptions{Width: 200}),
		"dag-200":    gen.RandomDAG(gen.DAGOptions{Seed: 1, Tasks: 200}),
	}
	for cap := 1; cap <= 10; cap++ {
		cfgs[fmt.Sprintf("T1 cap=%d", cap)] = gen.PaperT1(cap)
		cfgs[fmt.Sprintf("T2 cap=%d", cap)] = gen.PaperT2(cap)
	}
	reduced := map[string]bool{"T1 cap=2": true, "T1 cap=5": true, "T1 cap=6": true, "T2 cap=8": true, "dag-200": true}
	for name, cfg := range cfgs {
		p, err := core.BuildProblem(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var opt socp.Options
		sol, err := socp.Solve(p, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		full := socp.FullTolerance(p, sol, opt)
		if sol.Status != socp.StatusOptimal || full == reduced[name] {
			t.Errorf("%s: %v after %d iterations with pres %.3g, dres %.3g, gap %.3g, relgap %.3g: want optimal at the full tolerances (full: %v)",
				name, sol.Status, sol.Iterations, sol.PrimalRes, sol.DualRes, sol.Gap, sol.RelGap, full)
		}
	}
}
