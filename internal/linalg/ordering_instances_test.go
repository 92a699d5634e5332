package linalg_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/linalg"
	"repro/internal/socp"
	"repro/internal/taskgraph"
)

// TestAMDOrderMatchesScanOnSolves runs the oracle check of AMDOrder on the
// matrices real solves analyze — the normal-equations or KKT pattern of the
// paper's T1 and T2, the bbgen chain, fan-out and dag instances of the
// benchmarks, and the multi-job configurations of the ladder census — and
// pins nnz(L) summed over each instance's analyses, so a change of ordering
// or of the factored pattern shows up here before it moves an iterate.
func TestAMDOrderMatchesScanOnSolves(t *testing.T) {
	type instance struct {
		name string
		cfgs []*taskgraph.Config
		nnzL int
	}
	var t1, t2, census []*taskgraph.Config
	for c := 1; c <= 10; c++ {
		t1 = append(t1, gen.PaperT1(c))
		t2 = append(t2, gen.PaperT2(c))
	}
	for seed := int64(1); seed <= 20; seed++ {
		// The parameterization of the census in internal/core.
		census = append(census, gen.RandomJobs(gen.RandomOptions{
			Seed:       seed,
			Jobs:       int(1 + seed%8),
			MinTasks:   2,
			MaxTasks:   int(3 + seed%10),
			Processors: int(2 + seed%7),
			LoadFactor: 0.2 + 0.1*float64(seed%6),
		}))
	}
	one := func(c *taskgraph.Config) []*taskgraph.Config { return []*taskgraph.Config{c} }
	for _, inst := range []instance{
		{"T1 caps 1-10", t1, 120},
		{"T2 caps 1-10", t2, 330},
		{"chain100", one(gen.Chain(gen.ChainOptions{Tasks: 100})), 1881},
		{"chain380", one(gen.Chain(gen.ChainOptions{Tasks: 380})), 7201},
		{"fanout200", one(gen.FanOut(gen.FanOutOptions{Width: 200})), 4620},
		{"dag200", one(gen.RandomDAG(gen.DAGOptions{Seed: 1, Tasks: 200})), 6926},
		{"census random1-20", census, 10021},
	} {
		t.Run(inst.name, func(t *testing.T) {
			inputs, restore := linalg.CaptureAnalyzeInputs()
			defer restore()
			for _, cfg := range inst.cfgs {
				p, err := core.BuildProblem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				// The pipeline, and with it the analysis, is built before
				// the first iteration.
				if _, err := socp.Solve(p, socp.Options{MaxIter: 1}); err != nil {
					t.Fatal(err)
				}
			}
			if got := len(inputs()); got != len(inst.cfgs) {
				t.Fatalf("%d analyses for %d solves", got, len(inst.cfgs))
			}
			nnzL := 0
			for k, a := range inputs() {
				n, err := linalg.CheckAnalyzeOrder(a)
				if err != nil {
					t.Fatalf("analysis %d: %v", k, err)
				}
				nnzL += n
			}
			if nnzL != inst.nnzL {
				t.Errorf("nnz(L) = %d, want %d", nnzL, inst.nnzL)
			}
		})
	}
}
