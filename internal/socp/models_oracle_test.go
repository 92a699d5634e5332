package socp_test

import (
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
