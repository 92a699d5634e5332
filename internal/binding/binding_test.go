package binding

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/taskgraph"
)

// unbalanced returns a two-task configuration initially bound to ONE
// processor where no feasible mapping exists, while splitting across the
// two processors is feasible — binding search must find the split.
func unbalanced() *taskgraph.Config {
	c := gen.PaperT1(1)
	c.Graphs[0].Period = 4.2
	// Both tasks on p1: infeasible (see core.TestSolveInfeasibleCap).
	c.Graphs[0].Tasks[0].Processor = "p1"
	c.Graphs[0].Tasks[1].Processor = "p1"
	return c
}

func TestExhaustiveFindsFeasibleSplit(t *testing.T) {
	c := unbalanced()
	// Sanity: the given binding really is infeasible.
	r, err := core.Solve(context.Background(), c, core.Options{})
	if err != nil || r.Status != core.StatusInfeasible {
		t.Fatalf("precondition: expected infeasible, got %v %v", r.Status, err)
	}
	res, err := Exhaustive(context.Background(), c, core.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solve.Status != core.StatusOptimal {
		t.Fatalf("status %v", res.Solve.Status)
	}
	// The two tasks must land on different processors.
	p0 := res.Config.Graphs[0].Tasks[0].Processor
	p1 := res.Config.Graphs[0].Tasks[1].Processor
	if p0 == p1 {
		t.Fatalf("tasks still share processor %s", p0)
	}
	if res.Evaluated != 4 { // 2 processors ^ 2 tasks × 1 memory
		t.Fatalf("evaluated %d candidates, want 4", res.Evaluated)
	}
}

func TestGreedyFindsFeasibleSplit(t *testing.T) {
	c := unbalanced()
	res, err := Greedy(context.Background(), c, core.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solve.Status != core.StatusOptimal {
		t.Fatalf("status %v", res.Solve.Status)
	}
	p0 := res.Config.Graphs[0].Tasks[0].Processor
	p1 := res.Config.Graphs[0].Tasks[1].Processor
	if p0 == p1 {
		t.Fatalf("greedy left tasks on the same processor %s", p0)
	}
}

// TestGreedyMatchesExhaustiveSmall: on small instances the heuristic should
// reach the exhaustive optimum (or at least a feasible solution within a
// small factor).
func TestGreedyMatchesExhaustiveSmall(t *testing.T) {
	for _, build := range []func() *taskgraph.Config{
		func() *taskgraph.Config { return gen.PaperT1(4) },
		func() *taskgraph.Config { return gen.PaperT2(6) },
		unbalanced,
	} {
		c := build()
		ex, err := Exhaustive(context.Background(), c, core.Options{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		gr, err := Greedy(context.Background(), c, core.Options{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if g, e := gr.Solve.Mapping.Objective, ex.Solve.Mapping.Objective; g > e*1.05+1e-6 {
			t.Fatalf("%s: greedy %v vs exhaustive %v", c.Name, g, e)
		}
	}
}

// TestBindingImprovesMemoryPlacement: two memories, one big and one tiny;
// a buffer initially bound to the tiny memory must be moved.
func TestBindingImprovesMemoryPlacement(t *testing.T) {
	c := gen.PaperT1(0)
	c.Memories = []taskgraph.Memory{
		{Name: "tiny", Capacity: 2},
		{Name: "big", Capacity: 1000},
	}
	c.Graphs[0].Buffers[0].Memory = "tiny"
	// With γ ≤ 1 (constraint 10 leaves room for 1 container in "tiny"),
	// budgets must be huge; the binding search should prefer "big".
	res, err := Exhaustive(context.Background(), c, core.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Config.Graphs[0].Buffers[0].Memory; got != "big" {
		t.Fatalf("buffer stayed in %q", got)
	}
	gr, err := Greedy(context.Background(), c, core.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := gr.Config.Graphs[0].Buffers[0].Memory; got != "big" {
		t.Fatalf("greedy left buffer in %q", got)
	}
}

func TestExhaustiveCandidateCap(t *testing.T) {
	c := gen.Chain(gen.ChainOptions{Tasks: 10})
	if _, err := Exhaustive(context.Background(), c, core.Options{}, 100); err == nil {
		t.Fatal("candidate explosion not rejected")
	}
}

func TestExhaustiveInfeasibleEverywhere(t *testing.T) {
	c := gen.PaperT1(0)
	c.Graphs[0].Period = 0.5 // infeasible regardless of binding
	if _, err := Exhaustive(context.Background(), c, core.Options{}, 0); err == nil {
		t.Fatal("expected no-feasible-binding error")
	}
	if _, err := Greedy(context.Background(), c, core.Options{}, 0); err == nil {
		t.Fatal("greedy: expected no-feasible-binding error")
	}
}

func TestBindingInvalidConfig(t *testing.T) {
	c := gen.PaperT1(0)
	c.Graphs = nil
	if _, err := Exhaustive(context.Background(), c, core.Options{}, 0); err == nil {
		t.Fatal("invalid config accepted by Exhaustive")
	}
	if _, err := Greedy(context.Background(), c, core.Options{}, 0); err == nil {
		t.Fatal("invalid config accepted by Greedy")
	}
}

// TestGreedyMultiJob: greedy binding works on a larger multi-job system
// (exhaustive would explode) and produces a verified mapping.
func TestGreedyMultiJob(t *testing.T) {
	c := gen.RandomJobs(gen.RandomOptions{Seed: 5, Jobs: 3})
	res, err := Greedy(context.Background(), c, core.Options{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solve.Status != core.StatusOptimal {
		t.Fatalf("status %v", res.Solve.Status)
	}
	if res.Solve.Verification == nil || !res.Solve.Verification.OK {
		t.Fatal("greedy result not verified")
	}
}
