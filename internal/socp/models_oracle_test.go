package socp_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/socp"
	"repro/internal/taskgraph"
)

// TestSolveSparseMatchesDenseOracleCore: end-to-end property test on the
// Algorithm 1 programs of gen instances, built by core.BuildProblem. The
// production pipeline (sparse assembly + sparse factorization) and the
// dense-factor oracle must agree on the status, the relaxed optimum, and
// every variable to 1e-6. Iteration counts are not compared: the sparse
// factor eliminates in AMD order, so its iterates round differently from
// the dense factorization and the paths may converge in different
// iteration counts while agreeing on the answer.
func TestSolveSparseMatchesDenseOracleCore(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  *taskgraph.Config
	}{
		{"T1", gen.PaperT1(3)},
		{"T1slack1", gen.PaperT1(1)},
		{"T1slack10", gen.PaperT1(10)},
		{"T2", gen.PaperT2(5)},
		{"T2slack10", gen.PaperT2(10)},
		{"chain", gen.Chain(gen.ChainOptions{Tasks: 5})},
		{"random17", gen.RandomJobs(gen.RandomOptions{Seed: 17})},
		{"random99", gen.RandomJobs(gen.RandomOptions{Seed: 99})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := core.BuildProblem(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			sp, err := socp.Solve(p, socp.Options{})
			if err != nil {
				t.Fatal(err)
			}
			restore := socp.UseDenseFactorOracle()
			de, err := socp.Solve(p, socp.Options{})
			restore()
			if err != nil {
				t.Fatal(err)
			}
			if sp.Status != de.Status {
				t.Fatalf("status sparse=%v dense=%v", sp.Status, de.Status)
			}
			if sp.Status != socp.StatusOptimal {
				t.Skipf("instance not optimal (%v)", sp.Status)
			}
			if d := math.Abs(sp.PrimalObj - de.PrimalObj); d > 1e-6*(1+math.Abs(de.PrimalObj)) {
				t.Fatalf("objective differs by %g: sparse %v, dense %v", d, sp.PrimalObj, de.PrimalObj)
			}
			for i, v := range de.X {
				if d := math.Abs(sp.X[i] - v); d > 1e-6*(1+math.Abs(v)) {
					t.Fatalf("x[%d] differs by %g: sparse %v, dense %v", i, d, sp.X[i], v)
				}
			}
		})
	}
}

// censusJobs mirrors the ladder census's multi-job corpus (core's
// TestLadderCensus): every knob of gen.RandomJobs varies with the seed, and
// half of the seeds put more than maxNormalEqRow tasks or buffers on one
// processor or memory, so their coupling rows are split off H.
func censusJobs(seed int64) *taskgraph.Config {
	return gen.RandomJobs(gen.RandomOptions{
		Seed:       seed,
		Jobs:       int(1 + seed%8),
		MinTasks:   2,
		MaxTasks:   int(3 + seed%10),
		Processors: int(2 + seed%7),
		LoadFactor: 0.2 + 0.1*float64(seed%6),
	})
}

// agree fails unless b has a's status and, when optimal, every variable
// within 1e-6 (relative above 1).
func agree(t *testing.T, a, b *socp.Solution, what string) {
	t.Helper()
	if a.Status != b.Status {
		t.Fatalf("status %v, %s %v", a.Status, what, b.Status)
	}
	if a.Status != socp.StatusOptimal {
		return
	}
	for i, v := range b.X {
		if d := math.Abs(a.X[i] - v); d > 1e-6*(1+math.Abs(v)) {
			t.Fatalf("x[%d] differs by %g: split %v, %s %v", i, d, a.X[i], what, v)
		}
	}
}

// TestSplitMatchesDenseOracleCorpus: on the paper's T1/T2 and the census
// corpus, the production solve — long coupling rows split off H into the
// quasi-definite KKT matrix — must agree with the dense-factor oracle on
// the status and every variable. The corpus has 10 instances with split
// rows; the test fails if that coverage is lost.
func TestSplitMatchesDenseOracleCorpus(t *testing.T) {
	cfgs := []*taskgraph.Config{gen.PaperT1(3), gen.PaperT2(5), gen.Chain(gen.ChainOptions{Tasks: 100})}
	for seed := int64(1); seed <= 20; seed++ {
		cfgs = append(cfgs, censusJobs(seed))
	}
	withSplit := 0
	for i, cfg := range cfgs {
		p, err := core.BuildProblem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if split, _, _, _ := socp.KKTStructure(p); split > 0 {
			withSplit++
		}
		sp, err := socp.Solve(p, socp.Options{})
		if err != nil {
			t.Fatalf("%d %s: %v", i, cfg.Name, err)
		}
		restore := socp.UseDenseFactorOracle()
		de, err := socp.Solve(p, socp.Options{})
		restore()
		if err != nil {
			t.Fatalf("%d %s: dense oracle: %v", i, cfg.Name, err)
		}
		t.Run(fmt.Sprintf("%d-%s", i, cfg.Name), func(t *testing.T) { agree(t, sp, de, "dense oracle") })
	}
	if withSplit < 10 {
		t.Fatalf("only %d corpus instances have split rows, want ≥ 10", withSplit)
	}
}

// TestSplitMatchesUnsplitLarge: on the large map instances, where the
// dense oracle takes minutes, the split solve must agree with the unsplit
// normal-equations solve (the path TestSolveSparseMatchesDenseOracleCore
// checks against the dense oracle): the same status, every variable within
// 1e-6, and the same iteration count ±1.
func TestSplitMatchesUnsplitLarge(t *testing.T) {
	// chain-100 with two containers per buffer ends with the dual residual
	// growing as the iterates reach the boundary; it needs the refinement
	// against the unregularized KKT matrix to stop at an optimal iterate.
	cap2 := gen.Chain(gen.ChainOptions{Tasks: 100})
	cap2.Name += "-cap2"
	for _, tg := range cap2.Graphs {
		for i := range tg.Buffers {
			tg.Buffers[i].MaxContainers = 2
		}
	}
	for _, cfg := range []*taskgraph.Config{
		gen.Chain(gen.ChainOptions{Tasks: 100}),
		cap2,
		gen.Chain(gen.ChainOptions{Tasks: 380}),
		gen.FanOut(gen.FanOutOptions{Width: 200}),
		gen.RandomDAG(gen.DAGOptions{Seed: 1, Tasks: 200}),
	} {
		t.Run(cfg.Name, func(t *testing.T) {
			p, err := core.BuildProblem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if split, _, _, _ := socp.KKTStructure(p); split == 0 {
				t.Fatal("no row split off H")
			}
			sp, err := socp.Solve(p, socp.Options{})
			if err != nil {
				t.Fatal(err)
			}
			restore := socp.UseUnsplitNormalEq()
			un, err := socp.Solve(p, socp.Options{})
			restore()
			if err != nil {
				t.Fatal(err)
			}
			if sp.Status != socp.StatusOptimal {
				t.Fatalf("status split=%v unsplit=%v", sp.Status, un.Status)
			}
			agree(t, sp, un, "unsplit")
			if d := sp.Iterations - un.Iterations; d < -1 || d > 1 {
				t.Fatalf("split took %d iterations, unsplit %d", sp.Iterations, un.Iterations)
			}
		})
	}
}

// TestSplitKKTStructureChain380: on chain-380 the memory coupling row (379
// buffers) is split off H. Assembled into H it would be a dense 379×379
// block, 143k of the unsplit H's 154k nonzeros; split, H keeps the short
// rows only and the factor of the KKT matrix stays below 10k nonzeros.
func TestSplitKKTStructureChain380(t *testing.T) {
	p, err := core.BuildProblem(gen.Chain(gen.ChainOptions{Tasks: 380}))
	if err != nil {
		t.Fatal(err)
	}
	split, nnzH, dim, nnzL := socp.KKTStructure(p)
	restore := socp.UseUnsplitNormalEq()
	_, fullH, fullDim, fullL := socp.KKTStructure(p)
	restore()
	t.Logf("split rows %d: H %d nonzeros, factored dim %d, L %d nonzeros; unsplit H %d, dim %d, L %d",
		split, nnzH, dim, nnzL, fullH, fullDim, fullL)
	const w = 379
	if split != 1 || dim != fullDim+1 {
		t.Fatalf("split %d rows, dim %d; want 1 row and dim %d", split, dim, fullDim+1)
	}
	if nnzH > fullH-w*w/2 {
		t.Fatalf("H has %d nonzeros, unsplit %d: the %d×%d coupling block is still in H", nnzH, fullH, w, w)
	}
	if nnzL >= 10000 {
		t.Fatalf("nnz(L) = %d, want < 10000", nnzL)
	}
}
