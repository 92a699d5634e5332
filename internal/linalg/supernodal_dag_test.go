package linalg_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/linalg"
)

// TestSupernodalDAGParallelBitwise factorizes the normal-equations matrix of
// a generated 1000-task dataflow instance — ≈5k rows, the shape whose
// elimination tree degenerates to the trailing dense panel chain the striped
// scheduler exists for — at parallelism 1, 2, and 8, asserting that the
// panel storage of L and the diagonal of D agree bit for bit across every
// setting. Run under -race this doubles as the data-race certification of
// the stripe scheduler: stripes of one panel run concurrently on the real
// matrix, not a toy fixture.
func TestSupernodalDAGParallelBitwise(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second factorization of a 5k-row instance")
	}
	cfg := gen.RandomDAG(gen.DAGOptions{Seed: 1, Tasks: 1000})
	p, err := core.BuildProblem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gsp := p.GSparse
	ata := linalg.NewSparseAtA(gsp)
	ata.Compute(gsp)
	h := ata.Result
	reg := 1e-13 * (1 + h.NormInf())

	sym := linalg.Analyze(h, nil)
	chol := sym.NewSupernodal(1)
	if err := chol.Factorize(h, reg, reg); err != nil {
		t.Fatal(err)
	}
	px, d := chol.PanelData()
	refPx := append([]float64(nil), px...)
	refD := append([]float64(nil), d...)

	for _, workers := range []int{2, 8} {
		chol.SetParallelism(workers)
		if err := chol.Factorize(h, reg, reg); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		px, d := chol.PanelData()
		for i := range refPx {
			// Exact float comparison: bitwise reproducibility across parallelism is the property under test.
			if px[i] != refPx[i] {
				t.Fatalf("workers=%d: L panel storage differs at %d: %v vs %v", workers, i, px[i], refPx[i])
			}
		}
		for i := range refD {
			// Exact float comparison: bitwise reproducibility across parallelism is the property under test.
			if d[i] != refD[i] {
				t.Fatalf("workers=%d: D differs at %d: %v vs %v", workers, i, d[i], refD[i])
			}
		}
	}
}
