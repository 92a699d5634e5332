package core

import (
	"context"
	"errors"
	"math"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/gen"
	"repro/internal/socp"
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

// TestDSEBisectMatchesLinearScan checks the DSE search against the ground
// truth it replaces: the first feasible point of a full linear sweep, under
// budget bounds that leave a nontrivial threshold, in no more than
// 1 + ⌈log₂ MaxCap⌉ solves. The instances cover the benchmark's chain-100
// questions, the paper's T2 under its bound, a swept subset of buffers, a
// MaxCap below every feasible cap, and a buffer whose initial tokens put
// the min-cap optimum t* exactly on an integer (t ≥ ι + δ′ with δ′ ≥ 0),
// where rounding t* up without its tolerance would skip the answer.
func TestDSEBisectMatchesLinearScan(t *testing.T) {
	tokens := gen.Chain(gen.ChainOptions{Tasks: 12})
	tokens.Graphs[0].Buffers[0].InitialTokens = 3
	cases := []struct {
		name    string
		cfg     *taskgraph.Config
		buffers []string
		maxCap  int
		bounds  []float64
	}{
		{"chain-12", gen.Chain(gen.ChainOptions{Tasks: 12}), nil, 16, []float64{0, 50, 60, 100, 1e9}},
		{"chain-100", gen.Chain(gen.ChainOptions{Tasks: 100}), nil, 64, []float64{0, 1000, 500}},
		{"T2", gen.PaperT2(0), nil, 10, []float64{45}},
		{"chain-12 subset", gen.Chain(gen.ChainOptions{Tasks: 12}), []string{"b2", "b5", "b9"}, 16, []float64{0, 60}},
		{"chain-12 infeasible", gen.Chain(gen.ChainOptions{Tasks: 12}), nil, 8, []float64{50}},
		{"chain-12 tokens", tokens, []string{"b0"}, 16, []float64{0}},
	}
	opt := Options{SkipVerification: true, Parallelism: 1}
	for _, tc := range cases {
		want := map[string]bool{}
		for _, b := range tc.buffers {
			want[b] = true
		}
		swept := func(bf *taskgraph.Buffer) bool { return tc.buffers == nil || want[bf.Name] }
		for _, bound := range tc.bounds {
			res, err := DSEBisect(context.Background(), tc.cfg, DSEOptions{Buffers: tc.buffers, MaxCap: tc.maxCap, BudgetBound: bound}, opt)
			if err != nil {
				t.Fatalf("%s bound %v: %v", tc.name, bound, err)
			}
			if lim := 1 + bits.Len(uint(tc.maxCap-1)); res.Solves > lim { // 1 + ⌈log₂ MaxCap⌉
				t.Fatalf("%s bound %v: %d solves, want ≤ %d", tc.name, bound, res.Solves, lim)
			}
			// Ground truth: linear scan, cold. A cap below a swept
			// buffer's initial tokens is no configuration at all.
			want := -1
			for cap := 1; cap <= tc.maxCap; cap++ {
				cc := withCaps(tc.cfg, cap, swept)
				if cc.Validate() != nil {
					continue
				}
				r, err := Solve(context.Background(), cc,
					Options{SkipVerification: true, NoWarmStart: true, NoPatternCache: true})
				if err != nil {
					t.Fatalf("%s bound %v cap %d: %v", tc.name, bound, cap, err)
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
				t.Fatalf("%s bound %v: DSE found cap %d (t* = %v), linear scan %d", tc.name, bound, res.Cap, res.MinCap, want)
			}
			if want >= 1 && (res.Result == nil || res.Result.Status != StatusOptimal) {
				t.Fatalf("%s bound %v: missing result at answering cap", tc.name, bound)
			}
		}
	}
}

// TestDSESearchFallsBackToBisection runs the search on a stub predicate
// that accepts every cap from a threshold on: from every start the min-cap
// solve could give (0 when it ended undecided, otherwise any lower bound
// on the threshold) and every lower end lo below the threshold that the
// swept buffers' initial tokens could give, the search must find the
// threshold, probe start first when it lies above lo, never probe a cap
// ≤ lo, and stay within one probe of a bisection's count.
func TestDSESearchFallsBackToBisection(t *testing.T) {
	const maxCap = 64
	for threshold := 1; threshold <= maxCap+1; threshold++ {
		for start := 0; start <= min(threshold, maxCap); start++ {
			for _, lo := range []int{0, min(threshold, maxCap) - 1} {
				var probes []int
				got, err := dseSearch(start, lo, maxCap, func(cap int) (bool, error) {
					probes = append(probes, cap)
					return cap >= threshold, nil
				})
				want := threshold
				if threshold > maxCap {
					want = -1
				}
				switch {
				case err != nil:
					t.Fatalf("threshold %d start %d lo %d: %v", threshold, start, lo, err)
				case got != want:
					t.Fatalf("threshold %d start %d lo %d: found %d, want %d (probes %v)", threshold, start, lo, got, want, probes)
				case slices.Min(probes) <= lo:
					t.Fatalf("threshold %d start %d lo %d: probes %v reach a cap ≤ lo", threshold, start, lo, probes)
				case start > lo && probes[0] != start:
					t.Fatalf("threshold %d start %d lo %d: first probe %d", threshold, start, lo, probes[0])
				case start <= lo && probes[0] != maxCap:
					t.Fatalf("threshold %d start %d lo %d: first probe %d, want MaxCap", threshold, start, lo, probes[0])
				case start == threshold && len(probes) != 1:
					t.Fatalf("threshold %d: accepted start took %d probes", threshold, len(probes))
				case len(probes) > 2+bits.Len(uint(maxCap-1)):
					t.Fatalf("threshold %d start %d lo %d: %d probes %v", threshold, start, lo, len(probes), probes)
				}
			}
		}
	}
	boom := errors.New("boom")
	if got, err := dseSearch(3, 0, maxCap, func(int) (bool, error) { return false, boom }); got != -1 || err != boom {
		t.Fatalf("failing probe: %d, %v", got, err)
	}
}

// TestDSEFallbackSkipsCapsBelowInitialTokens forces the min-cap solve of
// chain-12, whose b0 holds 3 initial tokens, to end undecided: every rung
// of its ladder breaks down in its first iteration. The fallback bisection
// must then start above the caps that cannot hold b0's tokens, which are
// no configuration at all, and find the answer the min-cap path finds
// (TestDSEBisectMatchesLinearScan, "chain-12 tokens"), instead of failing
// the call with a validation error from probing a cap below 3.
func TestDSEFallbackSkipsCapsBelowInitialTokens(t *testing.T) {
	cfg := gen.Chain(gen.ChainOptions{Tasks: 12})
	cfg.Graphs[0].Buffers[0].InitialTokens = 3
	dse := DSEOptions{Buffers: []string{"b0"}, MaxCap: 16}
	opt := Options{SkipVerification: true, Parallelism: 1}
	clean, err := DSEBisect(context.Background(), cfg, dse, opt)
	if err != nil || clean.Cap < 3 {
		t.Fatalf("min-cap path: cap %d, err %v", clean.Cap, err)
	}
	// The min-cap solve is the call's first: no warm start and a simplicial
	// KKT system, so its ladder has two rungs, and each rung's first
	// iteration is one hit of the site.
	restore := faultinject.Activate(faultinject.Rule{
		Site: faultinject.SiteIPMIteration, Kind: faultinject.KindError, Count: 2,
	})
	res, err := DSEBisect(context.Background(), cfg, dse, opt)
	restore()
	if err != nil {
		t.Fatalf("fallback: %v (probes %+v)", err, res.Probes)
	}
	if a := res.MinCapReport.Attempts; len(a) != 2 || a[0].Status != socp.StatusNumericalError || a[1].Status != socp.StatusNumericalError {
		t.Fatalf("min-cap report %+v, want two numerical errors", res.MinCapReport)
	}
	if !math.IsNaN(res.MinCap) || res.Cap != clean.Cap {
		t.Fatalf("fallback found cap %d (t* = %v), the min-cap path %d", res.Cap, res.MinCap, clean.Cap)
	}
	for _, p := range res.Probes {
		if p.Cap < 3 {
			t.Fatalf("fallback probed cap %d below b0's 3 initial tokens: %+v", p.Cap, res.Probes)
		}
	}
	t.Logf("fallback probes %+v", res.Probes)
}

// TestDSECanceledMinCapSolve: a min-cap solve cut short by the context is
// no verdict. The search stops with the context's error after that one
// solve, probing nothing.
func TestDSECanceledMinCapSolve(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := DSEBisect(ctx, gen.Chain(gen.ChainOptions{Tasks: 12}), DSEOptions{MaxCap: 16}, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Cap != -1 || res.Solves != 1 || len(res.Probes) != 0 || !math.IsNaN(res.MinCap) {
		t.Fatalf("result = %+v, want one canceled solve and no probe", res)
	}
	if a := res.MinCapReport.Attempts; len(a) != 1 || a[0].Status != socp.StatusCanceled {
		t.Fatalf("min-cap report = %+v, want one canceled attempt", res.MinCapReport)
	}
}
