package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/taskgraph"
)

// warmTestConfigs are the instances the reuse-layer property tests run over:
// the paper's chain shape at a nontrivial size plus random irregular
// topologies.
func warmTestConfigs() map[string]*taskgraph.Config {
	return map[string]*taskgraph.Config{
		"chain12":  gen.Chain(gen.ChainOptions{Tasks: 12}),
		"dag20":    gen.RandomDAG(gen.DAGOptions{Seed: 4, Tasks: 20}),
		"fanout10": gen.FanOut(gen.FanOutOptions{Width: 10}),
	}
}

// TestSweepWarmDisabledBitIdentical pins the bypass contract: with
// NoWarmStart and NoPatternCache set, a sweep is bit-for-bit the sequence of
// independent Solve calls it replaces — same budgets, deltas, objective, and
// iteration counts — at any parallelism.
func TestSweepWarmDisabledBitIdentical(t *testing.T) {
	caps := []int{2, 3, 4, 5, 6, 7}
	off := Options{SkipVerification: true, NoWarmStart: true, NoPatternCache: true, Parallelism: 1}
	for name, cfg := range warmTestConfigs() {
		pts, err := SweepBufferCaps(context.Background(), cfg, nil, caps, off)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, cap := range caps {
			cc := cfg.Clone()
			for _, tg := range cc.Graphs {
				for j := range tg.Buffers {
					tg.Buffers[j].MaxContainers = cap
				}
			}
			want, err := Solve(context.Background(), cc, off)
			if err != nil {
				t.Fatalf("%s cap %d: %v", name, cap, err)
			}
			got := pts[i].Result
			if got.Status != want.Status || got.SolverIterations != want.SolverIterations {
				t.Fatalf("%s cap %d: status/iters diverge: %v/%d vs %v/%d",
					name, cap, got.Status, got.SolverIterations, want.Status, want.SolverIterations)
			}
			// Exact float comparison: bitwise-identity is the property under test.
			if got.ContinuousObjective != want.ContinuousObjective {
				t.Fatalf("%s cap %d: objective %v != %v", name, cap, got.ContinuousObjective, want.ContinuousObjective)
			}
			for k, v := range want.ContinuousBudgets {
				// Exact float comparison: bitwise-identity is the property under test.
				if got.ContinuousBudgets[k] != v {
					t.Fatalf("%s cap %d: budget %s %v != %v", name, cap, k, got.ContinuousBudgets[k], v)
				}
			}
			for k, v := range want.ContinuousDeltas {
				// Exact float comparison: bitwise-identity is the property under test.
				if got.ContinuousDeltas[k] != v {
					t.Fatalf("%s cap %d: delta %s %v != %v", name, cap, k, got.ContinuousDeltas[k], v)
				}
			}
		}
	}
}

// TestSweepWarmWithinTolerance checks the enabled path: warm-started sweep
// results agree with cold results to solver tolerance — tightly on the
// objective, more loosely per variable (on a near-degenerate optimal face
// different starting points settle on different optimizers of the same
// value), and exactly on the rounded mappings.
func TestSweepWarmWithinTolerance(t *testing.T) {
	caps := []int{2, 3, 4, 5, 6, 7, 8, 9}
	cold := Options{SkipVerification: true, NoWarmStart: true, NoPatternCache: true, Parallelism: 1}
	warm := Options{SkipVerification: true, Parallelism: 1, WarmChunk: len(caps)}
	for name, cfg := range warmTestConfigs() {
		cpts, err := SweepBufferCaps(context.Background(), cfg, nil, caps, cold)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wpts, err := SweepBufferCaps(context.Background(), cfg, nil, caps, warm)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, cap := range caps {
			c, w := cpts[i].Result, wpts[i].Result
			if c.Status != w.Status {
				t.Fatalf("%s cap %d: status %v (cold) vs %v (warm)", name, cap, c.Status, w.Status)
			}
			if c.Status != StatusOptimal {
				continue
			}
			if math.Abs(c.ContinuousObjective-w.ContinuousObjective) > 1e-4*(1+math.Abs(c.ContinuousObjective)) {
				t.Fatalf("%s cap %d: objective %v (cold) vs %v (warm)", name, cap, c.ContinuousObjective, w.ContinuousObjective)
			}
			for k, v := range c.ContinuousBudgets {
				if math.Abs(w.ContinuousBudgets[k]-v) > 1e-2*(1+math.Abs(v)) {
					t.Fatalf("%s cap %d: budget %s %v (cold) vs %v (warm)", name, cap, k, v, w.ContinuousBudgets[k])
				}
			}
			for b, cv := range c.Mapping.Capacities {
				if wv := w.Mapping.Capacities[b]; wv != cv {
					t.Fatalf("%s cap %d: rounded capacity %s %d (cold) vs %d (warm)", name, cap, b, cv, wv)
				}
			}
		}
	}
}

// TestSweepWarmParallelismInvariant pins the deterministic warm schedule:
// chunking is a function of the sweep alone (Options.WarmChunk), never of
// the worker pool, so a warm sweep is bitwise reproducible across
// parallelism levels.
func TestSweepWarmParallelismInvariant(t *testing.T) {
	caps := []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	cfg := gen.Chain(gen.ChainOptions{Tasks: 12})
	base := Options{SkipVerification: true, WarmChunk: 3}
	var ref []TradeoffPoint
	for _, par := range []int{1, 4} {
		opt := base
		opt.Parallelism = par
		pts, err := SweepBufferCaps(context.Background(), cfg, nil, caps, opt)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if ref == nil {
			ref = pts
			continue
		}
		for i := range pts {
			a, b := ref[i].Result, pts[i].Result
			if a.Status != b.Status || a.SolverIterations != b.SolverIterations {
				t.Fatalf("cap %d: parallelism changed the solve: %v/%d vs %v/%d",
					caps[i], a.Status, a.SolverIterations, b.Status, b.SolverIterations)
			}
			// Exact float comparison: bitwise reproducibility is the property under test.
			if a.ContinuousObjective != b.ContinuousObjective {
				t.Fatalf("cap %d: objective %v vs %v", caps[i], a.ContinuousObjective, b.ContinuousObjective)
			}
			for k, v := range a.ContinuousBudgets {
				// Exact float comparison: bitwise reproducibility is the property under test.
				if b.ContinuousBudgets[k] != v {
					t.Fatalf("cap %d: budget %s %v vs %v", caps[i], k, v, b.ContinuousBudgets[k])
				}
			}
		}
	}
}

// TestDSEBisectMatchesLinearScan checks the bisection against the ground
// truth it replaces: the first feasible point of a full linear sweep, under
// a budget bound that leaves a nontrivial threshold, in no more than
// 1 + ⌈log₂ MaxCap⌉ solves.
func TestDSEBisectMatchesLinearScan(t *testing.T) {
	cfg := gen.Chain(gen.ChainOptions{Tasks: 12})
	const maxCap = 16
	opt := Options{SkipVerification: true, Parallelism: 1}
	for _, bound := range []float64{0, 50, 60, 100, 1e9} {
		res, err := DSEBisect(context.Background(), cfg, DSEOptions{MaxCap: maxCap, BudgetBound: bound}, opt)
		if err != nil {
			t.Fatalf("bound %v: %v", bound, err)
		}
		if res.Solves > 5 { // 1 + ⌈log₂ 16⌉
			t.Fatalf("bound %v: %d solves, want ≤ 5", bound, res.Solves)
		}
		// Ground truth: linear scan, cold.
		want := -1
		for cap := 1; cap <= maxCap; cap++ {
			cc := cfg.Clone()
			for _, tg := range cc.Graphs {
				for j := range tg.Buffers {
					tg.Buffers[j].MaxContainers = cap
				}
			}
			r, err := Solve(context.Background(), cc,
				Options{SkipVerification: true, NoWarmStart: true, NoPatternCache: true})
			if err != nil {
				t.Fatalf("bound %v cap %d: %v", bound, cap, err)
			}
			ok := r.Status == StatusOptimal
			if ok && bound > 0 {
				ok = (TradeoffPoint{Result: r}).BudgetSum() <= bound
			}
			if ok {
				want = cap
				break
			}
		}
		if res.Cap != want {
			t.Fatalf("bound %v: bisection found cap %d, linear scan %d", bound, res.Cap, want)
		}
		if want >= 1 && (res.Result == nil || res.Result.Status != StatusOptimal) {
			t.Fatalf("bound %v: missing result at answering cap", bound)
		}
	}
}
