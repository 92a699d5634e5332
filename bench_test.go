// Benchmark harness: one benchmark per figure/table of the paper's
// evaluation (§V) and per extension experiment from DESIGN.md. Run with
//
//	go test -bench=. -benchmem
//
// Each benchmark prints the regenerated rows/series once (on the first
// iteration) so a bench run doubles as the experiment log recorded in
// EXPERIMENTS.md.
package repro

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/binding"
	"repro/internal/cone"
	"repro/internal/core"
	"repro/internal/dfmodel"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/linalg"
	"repro/internal/mrate"
	"repro/internal/sim"
	"repro/internal/socp"
	"repro/internal/srdf"
	"repro/internal/taskgraph"
)

// printOnce guards the one-time experiment output per benchmark name.
var printOnce sync.Map

func once(name string, f func()) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		f()
	}
}

// fig2Sweep memoizes the Figure 2 sweep so one bench run does the ten joint
// solves once: BenchmarkFig2a measures (and seeds) the sweep, and the figures
// built on the same points — Figure 2(b) is just the discrete derivative —
// reuse it instead of re-solving.
var fig2Sweep struct {
	once   sync.Once
	points []experiments.Fig2Point
	err    error
}

func fig2Points() ([]experiments.Fig2Point, error) {
	fig2Sweep.once.Do(func() {
		fig2Sweep.points, fig2Sweep.err = experiments.Fig2(context.Background(), core.Options{})
	})
	return fig2Sweep.points, fig2Sweep.err
}

// BenchmarkFig2a regenerates Figure 2(a): the budget/buffer trade-off sweep
// of the producer-consumer graph T1 (10 joint solves per iteration).
func BenchmarkFig2a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig2(context.Background(), core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		fig2Sweep.once.Do(func() { fig2Sweep.points = points })
		once("fig2a", func() { b.Logf("\n%s", experiments.RenderFig2a(points)) })
	}
}

// BenchmarkFig2b regenerates Figure 2(b) from the shared Figure 2 sweep and
// measures only the rendering; the underlying solves are the same ten as
// Figure 2(a), so they are not repeated (or timed) here.
func BenchmarkFig2b(b *testing.B) {
	points, err := fig2Points()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := experiments.RenderFig2b(points)
		once("fig2b", func() { b.Logf("\n%s", out) })
	}
}

// BenchmarkFig3 regenerates Figure 3: topology dependence of the trade-off
// on the three-task chain T2.
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig3(context.Background(), core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		once("fig3", func() { b.Logf("\n%s", experiments.RenderFig3(points)) })
	}
}

// BenchmarkPaperInstances measures single joint solves of the paper's two
// instances — the "run-time is milliseconds" claim. The per-op time IS the
// reproduced metric; linsolves/op counts the factored KKT solves of every
// ladder attempt.
func BenchmarkPaperInstances(b *testing.B) {
	for _, inst := range []struct {
		name string
		cap  int
		t2   bool
	}{
		{"T1/cap=1", 1, false},
		{"T1/cap=10", 10, false},
		{"T2/cap=1", 1, true},
		{"T2/cap=10", 10, true},
	} {
		b.Run(inst.name, func(b *testing.B) {
			cfg := gen.PaperT1(inst.cap)
			if inst.t2 {
				cfg = gen.PaperT2(inst.cap)
			}
			linSolves := 0
			for i := 0; i < b.N; i++ {
				r, err := core.Solve(context.Background(), cfg, core.Options{})
				if err != nil || r.Status != core.StatusOptimal {
					b.Fatalf("%v %v", r.Status, err)
				}
				for _, a := range r.Report.Attempts {
					linSolves += a.LinearSolves
				}
			}
			b.ReportMetric(float64(linSolves)/float64(b.N), "linsolves/op")
		})
	}
}

// BenchmarkScalability supports the polynomial-complexity claim: joint solve
// time for pipelines of growing size.
func BenchmarkScalability(b *testing.B) {
	for _, n := range []int{5, 10, 20, 50, 100, 200} {
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			cfg := gen.Chain(gen.ChainOptions{Tasks: n})
			for i := 0; i < b.N; i++ {
				r, err := core.Solve(context.Background(), cfg, core.Options{SkipVerification: true})
				if err != nil || r.Status != core.StatusOptimal {
					b.Fatalf("%v %v", r.Status, err)
				}
			}
		})
	}
	// Beyond the banded chain: wide fan-out (two high-degree KKT rows) and
	// irregular random DAGs, the large-instance topologies from bbgen.
	for _, tc := range []struct {
		name string
		cfg  *taskgraph.Config
	}{
		{"fanout=200", gen.FanOut(gen.FanOutOptions{Width: 200})},
		{"dag=200", gen.RandomDAG(gen.DAGOptions{Seed: 1, Tasks: 200})},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := core.Solve(context.Background(), tc.cfg, core.Options{SkipVerification: true})
				if err != nil || r.Status != core.StatusOptimal {
					b.Fatalf("%v %v", r.Status, err)
				}
			}
		})
	}
}

// sweepWarmCaps is the cap grid of BenchmarkSweepWarmVsCold: a 60-point
// resolution pass over the knee and plateau of chain-100's budget/buffer
// trade-off curve.
func sweepWarmCaps() []int {
	caps := make([]int, 60)
	for i := range caps {
		caps[i] = i + 8
	}
	return caps
}

// BenchmarkSweepWarmVsCold measures the reuse layer end to end on a
// chain-100 trade-off sweep: "cold" disables both the warm starts and the
// pattern cache (every point pays symbolic analysis, workspace allocation,
// and a from-scratch interior-point run — the pre-reuse behavior), "warm"
// is the default sweep path, where neighboring points share one pattern
// cache and hand their solution forward as the next point's starting
// iterate. Parallelism is pinned to 1 so the comparison is pure per-solve
// work, not scheduling.
func BenchmarkSweepWarmVsCold(b *testing.B) {
	cfg := gen.Chain(gen.ChainOptions{Tasks: 100})
	caps := sweepWarmCaps()
	for _, mode := range []struct {
		name string
		opt  core.Options
	}{
		{"cold", core.Options{SkipVerification: true, Parallelism: 1, NoWarmStart: true, NoPatternCache: true}},
		{"warm", core.Options{SkipVerification: true, Parallelism: 1, WarmChunk: len(caps)}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pts, err := core.SweepBufferCaps(context.Background(), cfg, nil, caps, mode.opt)
				if err != nil {
					b.Fatal(err)
				}
				iters := 0
				for _, p := range pts {
					if p.Result == nil || p.Result.Status != core.StatusOptimal {
						b.Fatalf("cap %d: not optimal", p.Cap)
					}
					iters += p.Result.SolverIterations
				}
				once("sweepwarm-"+mode.name, func() {
					b.Logf("%s: %d points, %d IPM iterations total", mode.name, len(pts), iters)
				})
			}
		})
	}
}

// BenchmarkDSEBisect measures the design-space-exploration mode against
// the linear sweep it replaces: the smallest feasible cap out of d = 64
// candidates, found by one min-cap solve and one probe at ⌈t*⌉. More than
// two solves means the search fell back to bisection.
func BenchmarkDSEBisect(b *testing.B) {
	cfg := gen.Chain(gen.ChainOptions{Tasks: 100})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.DSEBisect(context.Background(), cfg, core.DSEOptions{MaxCap: 64},
			core.Options{SkipVerification: true, Parallelism: 1})
		if err != nil {
			b.Fatal(err)
		}
		if res.Cap < 1 || res.Solves > 2 {
			b.Fatalf("cap %d in %d solves", res.Cap, res.Solves)
		}
		once("dsebisect", func() {
			b.Logf("smallest feasible cap %d in %d solves", res.Cap, res.Solves)
		})
	}
}

// BenchmarkJointVsTwoPhase regenerates the comparison table (experiment A2):
// false negatives of the classical two-phase flows.
func BenchmarkJointVsTwoPhase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.JointVsTwoPhase(context.Background(), core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		once("compare", func() { b.Logf("\n%s", experiments.RenderJointVsTwoPhase(rows)) })
	}
}

// BenchmarkAblationRounding regenerates the rounding ablation (experiment
// A1): relaxed vs rounded vs exhaustive integer optimum.
func BenchmarkAblationRounding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationRounding(context.Background(), core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		once("ablation", func() { b.Logf("\n%s", experiments.RenderAblation(rows)) })
	}
}

// BenchmarkSolverRaw measures the bare interior-point method on the paper's
// cap=1 subproblem, isolating solver cost from model construction.
func BenchmarkSolverRaw(b *testing.B) {
	bld := socp.NewBuilder()
	beta := bld.AddVar()
	lam := bld.AddVar()
	bld.SetObjective(beta, 1)
	bld.AddLE(socp.Expr(80).Plus(-2, beta).Plus(80, lam), socp.Expr(10))
	bld.AddLE(socp.Expr(0).Plus(40, lam), socp.Expr(10))
	bld.AddLE(socp.Expr(0).Plus(1, beta), socp.Expr(40))
	bld.AddProductGE(lam, beta, 1)
	p, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := socp.Solve(p, socp.Options{})
		if err != nil || sol.Status != socp.StatusOptimal {
			b.Fatalf("%v %v", sol.Status, err)
		}
	}
}

// BenchmarkSolveColdLarge measures cold socp.Solve calls on the largest
// map-style instances, whose processor (9) and memory (10) coupling rows
// each touch hundreds of variables: chain-380, fanout-200 and dag-200. The
// op is the whole interior-point run — sparse view, symbolic analysis,
// every iteration's refactorization — without warm start or pattern cache.
// linsolves/op counts its factored KKT solves (Solution.LinearSolves). A
// solve makes two KKT solves for its starting point and two per iteration;
// more than 2.5 factored solves per KKT solve fails the benchmark, since
// refinement whose tolerance follows the iterate's residuals takes 1.4–2.1
// here and refinement to working accuracy in every iteration 2.8–3.1.
func BenchmarkSolveColdLarge(b *testing.B) {
	for _, inst := range []struct {
		name string
		cfg  *taskgraph.Config
	}{
		{"chain380", gen.Chain(gen.ChainOptions{Tasks: 380})},
		{"fanout200", gen.FanOut(gen.FanOutOptions{Width: 200})},
		{"dag200", gen.RandomDAG(gen.DAGOptions{Seed: 1, Tasks: 200})},
	} {
		p, err := core.BuildProblem(inst.cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(inst.name, func(b *testing.B) {
			b.ReportAllocs()
			iters, linSolves := 0, 0
			for i := 0; i < b.N; i++ {
				sol, err := socp.Solve(p, socp.Options{})
				if err != nil || sol.Status != socp.StatusOptimal {
					b.Fatalf("%v %v", sol.Status, err)
				}
				if kkt := 2*sol.Iterations + 2; 2*sol.LinearSolves > 5*kkt {
					b.Fatalf("%d linear solves for %d KKT solves (%d iterations), want at most 2.5 per KKT solve",
						sol.LinearSolves, kkt, sol.Iterations)
				}
				iters, linSolves = sol.Iterations, sol.LinearSolves
			}
			b.ReportMetric(float64(iters), "iters")
			b.ReportMetric(float64(linSolves), "linsolves/op")
		})
	}
}

// kktMatrix returns the matrix a cold socp.Solve of p hands to
// linalg.Analyze, with the values of its first factorization (W = I): every
// row of an SOC block carries the union of the block rows' columns, rows of
// more than eight entries (the processor and memory coupling rows) are split
// off H_s = GᵀG into a quasi-definite KKT matrix [H_s+reg·I Bᵀ; B −I], and
// without split rows H_s itself is returned. It mirrors the
// socp sparse view and factorization pipeline, which BenchmarkAnalyze checks
// through nnz(L) (the values TestAMDOrderMatchesScanOnSolves pins for the
// same instances).
func kktMatrix(p *socp.Problem, reg float64) *linalg.SparseMatrix {
	g := p.GSparse
	rows := make([][]int, g.Rows)
	for r := 0; r < p.Dims.NonNeg; r++ {
		rows[r] = g.ColIdx[g.RowPtr[r]:g.RowPtr[r+1]]
	}
	off := p.Dims.NonNeg
	for _, q := range p.Dims.SOC {
		var cols []int
		for r := off; r < off+q; r++ {
			cols = append(cols, g.ColIdx[g.RowPtr[r]:g.RowPtr[r+1]]...)
		}
		slices.Sort(cols)
		cols = slices.Compact(cols)
		for r := off; r < off+q; r++ {
			rows[r] = cols
		}
		off += q
	}
	gs := linalg.NewSparseFromPattern(g.Rows, g.Cols, rows)
	for r := range rows {
		for t := gs.RowPtr[r]; t < gs.RowPtr[r+1]; t++ {
			gs.Val[t] = g.At(r, gs.ColIdx[t])
		}
	}
	skip := make([]bool, gs.Rows)
	var split []int
	for r := range rows {
		if len(rows[r]) > 8 {
			skip[r] = true
			split = append(split, r)
		}
	}
	ata := linalg.NewSparseAtASkip(gs, skip)
	ata.Compute(gs)
	h := ata.Result
	if len(split) == 0 {
		return h
	}
	n := h.Rows
	kkt := make([][]int, n+len(split))
	for i := 0; i < n; i++ {
		kkt[i] = append(kkt[i], h.ColIdx[h.RowPtr[i]:h.RowPtr[i+1]]...)
		if h.Index(i, i) < 0 {
			kkt[i] = append(kkt[i], i)
		}
	}
	for k, r := range split {
		for _, j := range rows[r] {
			kkt[j] = append(kkt[j], n+k)
		}
		kkt[n+k] = append(append([]int(nil), rows[r]...), n+k)
	}
	for i := range kkt {
		slices.Sort(kkt[i])
	}
	m := linalg.NewSparseFromPattern(n+len(split), n+len(split), kkt)
	for i := 0; i < n; i++ {
		for t := h.RowPtr[i]; t < h.RowPtr[i+1]; t++ {
			m.Val[m.Index(i, h.ColIdx[t])] = h.Val[t]
		}
		m.Val[m.Index(i, i)] += reg
	}
	for k, r := range split {
		for t := gs.RowPtr[r]; t < gs.RowPtr[r+1]; t++ {
			j := gs.ColIdx[t]
			m.Val[m.Index(n+k, j)] = gs.Val[t]
			m.Val[m.Index(j, n+k)] = gs.Val[t]
		}
		m.Val[m.Index(n+k, n+k)] = -1
	}
	return m
}

// BenchmarkAnalyze times the symbolic analysis a cold solve runs once —
// AMD ordering, elimination tree and column counts of L — on the KKT
// patterns of the three largest map instances of the benchmark and of
// chain-100, the chain its sweep workload analyzes on a pattern-cache
// miss. nnzL is the fill of the ordering.
func BenchmarkAnalyze(b *testing.B) {
	for _, inst := range []struct {
		name string
		cfg  *taskgraph.Config
		nnzL int
	}{
		{"chain380", gen.Chain(gen.ChainOptions{Tasks: 380}), 7201},
		{"fanout200", gen.FanOut(gen.FanOutOptions{Width: 200}), 4620},
		{"dag200", gen.RandomDAG(gen.DAGOptions{Seed: 1, Tasks: 200}), 6926},
		{"chain100", gen.Chain(gen.ChainOptions{Tasks: 100}), 1881},
	} {
		p, err := core.BuildProblem(inst.cfg)
		if err != nil {
			b.Fatal(err)
		}
		m := kktMatrix(p, 0)
		if got := linalg.Analyze(m, nil).NNZL(); got != inst.nnzL {
			b.Fatalf("%s: nnz(L) = %d, want the solver's %d", inst.name, got, inst.nnzL)
		}
		b.Run(fmt.Sprintf("%s/n=%d", inst.name, m.Rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				linalg.Analyze(m, nil)
			}
			b.ReportMetric(float64(inst.nnzL), "nnzL")
		})
	}
}

// BenchmarkKKTKernels times the kernels of one interior-point iteration,
// one sub-benchmark each, on the KKT matrix the solver factors (kktMatrix):
// a 6×6 RandomJobs instance, the size of the serve workload's requests, and
// chain-380, the largest map instance. The kernels are the numeric
// factorization, the triangular solve (a copy of the right-hand side plus
// SparseCholesky.Solve), the products G·x and Gᵀ·z, and the W² application
// of an NT scaling. Their per-op times are the per-stage numbers a profile
// of a whole solve splits up.
func BenchmarkKKTKernels(b *testing.B) {
	for _, inst := range []struct {
		name string
		cfg  *taskgraph.Config
	}{
		{"jobs6x6", gen.RandomJobs(gen.RandomOptions{Seed: 1, Jobs: 6, MinTasks: 6, MaxTasks: 6, Processors: 8})},
		{"chain380", gen.Chain(gen.ChainOptions{Tasks: 380})},
	} {
		p, err := core.BuildProblem(inst.cfg)
		if err != nil {
			b.Fatal(err)
		}
		// Both instances split their coupling rows off H, so the solver
		// factors the quasi-definite KKT matrix.
		const reg = 1e-10
		m := kktMatrix(p, reg)
		if m.Rows == len(p.C) {
			b.Fatalf("%s: no row split off H", inst.name)
		}
		chol := linalg.NewSparseCholesky(m, nil)
		if err := chol.FactorizeQuasiDef(m, reg); err != nil {
			b.Fatal(err)
		}
		g := p.GSparse
		// Deterministic operands; s and z are the cone identity plus a
		// perturbation small enough to stay strictly interior.
		rhs, sol := linalg.NewVector(m.Rows), linalg.NewVector(m.Rows)
		x, gtz := linalg.NewVector(g.Cols), linalg.NewVector(g.Cols)
		gx := linalg.NewVector(g.Rows)
		s, z, w2 := linalg.NewVector(g.Rows), linalg.NewVector(g.Rows), linalg.NewVector(g.Rows)
		for i := range rhs {
			rhs[i] = 1 + float64(i%7)
		}
		for i := range x {
			x[i] = float64(i%5) - 2
		}
		p.Dims.Identity(s)
		p.Dims.Identity(z)
		for i := range s {
			s[i] += 0.1 * float64(i%7) / 7
			z[i] += 0.1 * float64(i%5) / 5
		}
		w, err := cone.NewScaling(p.Dims, s, z)
		if err != nil {
			b.Fatal(err)
		}
		name := fmt.Sprintf("%s/kkt=%d", inst.name, m.Rows)
		for _, k := range []struct {
			name string
			run  func(b *testing.B)
		}{
			{"factor", func(b *testing.B) {
				if err := chol.FactorizeQuasiDef(m, reg); err != nil {
					b.Fatal(err)
				}
			}},
			{"solve", func(*testing.B) { sol.CopyFrom(rhs); chol.Solve(sol) }},
			{"G", func(*testing.B) { g.MulVec(gx, x) }},
			{"Gt", func(*testing.B) { g.MulVecTAdd(gtz, 1, z) }},
			{"W2", func(*testing.B) { w.ApplySq(w2, z) }},
		} {
			b.Run(name+"/"+k.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					k.run(b)
				}
			})
		}
	}
}

// BenchmarkFactorizeSparse isolates one full factorize-and-solve cycle on
// the normal-equations matrix H = GᵀG of real model instances: the paper's
// T1 program and bbgen chains at 4× and 16× its size. Each sparse op
// performs what a cold solve pays once — allocate the factor storage,
// assemble H, run the symbolic analysis, factorize with static
// regularization and run one refined solve — and sparse-refactor what each
// IPM iteration pays once the analysis is amortized. (The dense reference
// arm this benchmark once had measured a path the solver no longer takes;
// EXPERIMENTS.md keeps its numbers.)
func BenchmarkFactorizeSparse(b *testing.B) {
	for _, inst := range []struct {
		name string
		cfg  *taskgraph.Config
	}{
		{"paper", gen.PaperT1(10)},
		{"chain4x", gen.Chain(gen.ChainOptions{Tasks: 8})},
		{"chain16x", gen.Chain(gen.ChainOptions{Tasks: 32})},
	} {
		p, err := core.BuildProblem(inst.cfg)
		if err != nil {
			b.Fatal(err)
		}
		gsp := p.GSparse
		n := gsp.Cols
		rhs := linalg.NewVector(n)
		for i := range rhs {
			rhs[i] = 1 + float64(i%7)
		}
		h := linalg.NewSparseAtA(gsp)
		h.Compute(gsp)
		reg := 1e-13 * (1 + h.Result.NormInf())
		b.Run(fmt.Sprintf("%s/n=%d/sparse", inst.name, n), func(b *testing.B) {
			b.ReportAllocs()
			x := linalg.NewVector(n)
			for i := 0; i < b.N; i++ {
				ata := linalg.NewSparseAtA(gsp)
				ata.Compute(gsp)
				chol := linalg.NewSparseCholesky(ata.Result, nil)
				if err := chol.Factorize(ata.Result, reg, reg); err != nil {
					b.Fatal(err)
				}
				chol.SolveRefined(ata.Result, rhs, x)
			}
		})
		// The numeric-only variant is what the solver pays per IPM iteration
		// once the symbolic analysis is amortized: refill H on its fixed
		// pattern, refactorize into the preallocated workspaces, solve.
		b.Run(fmt.Sprintf("%s/n=%d/sparse-refactor", inst.name, n), func(b *testing.B) {
			ata := linalg.NewSparseAtA(gsp)
			ata.Compute(gsp)
			chol := linalg.NewSparseCholesky(ata.Result, nil)
			x := linalg.NewVector(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ata.Compute(gsp)
				if err := chol.Factorize(ata.Result, reg, reg); err != nil {
					b.Fatal(err)
				}
				chol.SolveRefined(ata.Result, rhs, x)
			}
		})
	}
}

// dagNormalEq builds the unsplit normal-equations matrix H = GᵀG of a
// bbgen -preset dag instance together with the CSR constraint matrix it is
// assembled from.
func dagNormalEq(b *testing.B, tasks int) (gsp *linalg.SparseMatrix, h *linalg.SparseAtA) {
	b.Helper()
	cfg := gen.RandomDAG(gen.DAGOptions{Seed: 1, Tasks: tasks})
	p, err := core.BuildProblem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	gsp = p.GSparse
	h = linalg.NewSparseAtA(gsp)
	h.Compute(gsp)
	return gsp, h
}

// BenchmarkCSRAssembly isolates the assembly H = AᵀA on bbgen dag
// instances past 10k constraint rows: the symbolic plan build (once per
// pattern) and the branch-free value refill Compute (every IPM iteration).
// It assembles every row of G, including the memory coupling row the
// solver splits off H into its KKT matrix (DESIGN.md §6), so it times the
// kernel on a denser H than a solve refills; BenchmarkSolveColdLarge times
// the solver's own pipeline.
func BenchmarkCSRAssembly(b *testing.B) {
	for _, tasks := range []int{1000, 2000} {
		gsp, _ := dagNormalEq(b, tasks)
		name := fmt.Sprintf("dag%d/rows=%d/nnz=%d", tasks, gsp.Rows, gsp.NNZ())
		b.Run(name+"/plan", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				linalg.NewSparseAtA(gsp)
			}
		})
		b.Run(name+"/compute", func(b *testing.B) {
			ata := linalg.NewSparseAtA(gsp)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ata.Compute(gsp)
			}
		})
	}
}

// BenchmarkFactorization compares the numeric refactorization of the
// unsplit normal-equations matrix GᵀG of large dag/fanout instances across
// the sparse backends: the up-looking simplicial kernel against the blocked
// supernodal one, serially and across worker pools. Symbolic analysis is
// done outside the loop on both sides. GᵀG keeps the dense block of the
// memory coupling row, which the solver no longer factors — it splits that
// row into the KKT matrix (DESIGN.md §6) — so this is a kernel benchmark on
// a matrix with a wide dense trailing block, not the per-iteration work of
// a solve (see BenchmarkSolveColdLarge). The parallel variants produce
// bitwise identical factors; only the wall clock changes.
func BenchmarkFactorization(b *testing.B) {
	instances := []struct {
		name string
		cfg  *taskgraph.Config
	}{
		{"dag1000", gen.RandomDAG(gen.DAGOptions{Seed: 1, Tasks: 1000})},
		{"fanout1000", gen.FanOut(gen.FanOutOptions{Width: 1000})},
		{"dag2000", gen.RandomDAG(gen.DAGOptions{Seed: 1, Tasks: 2000})},
	}
	for _, inst := range instances {
		p, err := core.BuildProblem(inst.cfg)
		if err != nil {
			b.Fatal(err)
		}
		gsp := p.GSparse
		ata := linalg.NewSparseAtA(gsp)
		ata.Compute(gsp)
		h := ata.Result
		reg := 1e-13 * (1 + h.NormInf())
		name := fmt.Sprintf("%s/n=%d", inst.name, h.Rows)
		b.Run(name+"/simplicial", func(b *testing.B) {
			chol := linalg.NewSparseCholesky(h, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := chol.Factorize(h, reg, reg); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/supernodal/w=%d", name, workers), func(b *testing.B) {
				chol := linalg.Analyze(h, nil).NewSupernodal(workers)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := chol.Factorize(h, reg, reg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkLatencyTradeoff regenerates the latency/budget trade-off table
// (extension: affine latency constraints in the cone program).
func BenchmarkLatencyTradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.LatencyTradeoff(context.Background(), core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		once("latency", func() { b.Logf("\n%s", experiments.RenderLatencyTradeoff(points)) })
	}
}

// BenchmarkPareto regenerates the weight-sweep Pareto frontier of T1.
func BenchmarkPareto(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := core.ParetoFrontier(context.Background(), gen.PaperT1(0), 13, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(points) < 2 {
			b.Fatalf("degenerate frontier: %d points", len(points))
		}
	}
}

// BenchmarkBindingSearch measures the exhaustive binding search (extension:
// the paper's "compute the binding" future work) on the paper's T2.
func BenchmarkBindingSearch(b *testing.B) {
	cfg := gen.PaperT2(6)
	for i := 0; i < b.N; i++ {
		r, err := binding.Exhaustive(context.Background(), cfg, core.Options{}, 0)
		if err != nil {
			b.Fatal(err)
		}
		if r.Solve.Status != core.StatusOptimal {
			b.Fatal("binding search failed")
		}
	}
}

// BenchmarkMultiRate measures the hybrid multi-rate solver (extension: the
// paper's "more dynamic applications" future work) on a 2:1 downsampler.
func BenchmarkMultiRate(b *testing.B) {
	cfg := gen.PaperT1(0)
	cfg.Graphs[0].Buffers[0].Prod = 2
	cfg.Graphs[0].Buffers[0].Cons = 1
	for i := 0; i < b.N; i++ {
		r, err := mrate.Solve(context.Background(), cfg)
		if err != nil || r.Status != core.StatusOptimal {
			b.Fatalf("%v %v", r.Status, err)
		}
	}
}

// BenchmarkSimulator measures the cycle-accurate TDM simulator on a verified
// T1 mapping (500 firings per task).
func BenchmarkSimulator(b *testing.B) {
	cfg := gen.PaperT1(4)
	r, err := core.Solve(context.Background(), cfg, core.Options{})
	if err != nil || r.Status != core.StatusOptimal {
		b.Fatalf("%v %v", r.Status, err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(cfg, r.Mapping, sim.Options{Firings: 500})
		if err != nil || res.Deadlocked {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinPeriodHoward measures the SRDF maximum-cycle-mean analysis
// (Howard's policy iteration, which Verify reports) on a 100-actor ring with
// chords.
func BenchmarkMinPeriodHoward(b *testing.B) {
	g := srdf.NewGraph()
	const n = 100
	ids := make([]srdf.ActorID, n)
	for i := 0; i < n; i++ {
		ids[i] = g.AddActor("", float64(1+i%7))
	}
	for i := 0; i < n; i++ {
		g.AddEdge("", ids[i], ids[(i+1)%n], 1+i%3)
		g.AddEdge("", ids[i], ids[(i+13)%n], 2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.MinPeriodHoward(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildProblem measures core.BuildProblem, the Algorithm 1 build
// stage every joint solve starts with: the §II-C model of dfmodel.NewModel
// written as socp.Builder rows and assembled into CSR, on the paper's T2
// and a 100-task chain.
func BenchmarkBuildProblem(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  *taskgraph.Config
	}{
		{"T2", gen.PaperT2(5)},
		{"chain100", gen.Chain(gen.ChainOptions{Tasks: 100})},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.BuildProblem(bc.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVerify measures dfmodel.Verify, which runs after every solve, on
// solved mappings of the paper's T2 and of a 100-task chain, and on the
// chain's mapping again with four end-to-end latency constraints (bounds at
// the mapping's own latencies), which Verify checks on the SRDF graph it
// builds for the period check.
func BenchmarkVerify(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  *taskgraph.Config
		lats [][2]string // latency constraints added after the solve
	}{
		{"T2", gen.PaperT2(5), nil},
		{"chain100", gen.Chain(gen.ChainOptions{Tasks: 100}), nil},
		{"chain100-latency4", gen.Chain(gen.ChainOptions{Tasks: 100}),
			[][2]string{{"w0", "w99"}, {"w0", "w49"}, {"w25", "w74"}, {"w50", "w99"}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tg := bc.cfg.Graphs[0]
			tg.Latencies = nil
			r, err := core.Solve(context.Background(), bc.cfg, core.Options{})
			if err != nil || r.Status != core.StatusOptimal {
				b.Fatalf("%v %v", r.Status, err)
			}
			for _, l := range bc.lats {
				lat, err := dfmodel.LatencyBound(bc.cfg, tg, r.Mapping, l[0], l[1])
				if err != nil {
					b.Fatal(err)
				}
				tg.Latencies = append(tg.Latencies, taskgraph.LatencyConstraint{From: l[0], To: l[1], Bound: lat})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, err := dfmodel.Verify(bc.cfg, r.Mapping)
				if err != nil || !v.OK {
					b.Fatalf("%v %v", v, err)
				}
			}
		})
	}
}
