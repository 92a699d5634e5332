package mrate

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dfmodel"
	"repro/internal/gen"
	"repro/internal/sim"
	"repro/internal/taskgraph"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// downsampler returns a 2:1 multi-rate producer-consumer: wa produces 2
// containers per firing, wb consumes 1; repetition vector (1, 2). One
// iteration (1×wa, 2×wb) must finish per 10 Mcycles.
func downsampler(cap int) *taskgraph.Config {
	return &taskgraph.Config{
		Name: "downsampler",
		Processors: []taskgraph.Processor{
			{Name: "p1", Replenishment: 40},
			{Name: "p2", Replenishment: 40},
		},
		Memories: []taskgraph.Memory{{Name: "m1", Capacity: 1 << 16}},
		Graphs: []*taskgraph.TaskGraph{{
			Name:   "ds",
			Period: 10,
			Tasks: []taskgraph.Task{
				{Name: "wa", Processor: "p1", WCET: 1, BudgetWeight: 1000},
				{Name: "wb", Processor: "p2", WCET: 1, BudgetWeight: 1000},
			},
			Buffers: []taskgraph.Buffer{{
				Name: "bab", From: "wa", To: "wb", Memory: "m1",
				Prod: 2, Cons: 1, MaxContainers: cap,
			}},
		}},
	}
}

func TestCoreRejectsMultiRate(t *testing.T) {
	if _, err := core.Solve(context.Background(), downsampler(4), core.Options{}); err == nil {
		t.Fatal("core accepted a multi-rate configuration")
	}
}

func TestRepetitionsDownsampler(t *testing.T) {
	c := downsampler(4)
	reps, err := dfmodel.Repetitions(c.Graphs[0])
	if err != nil {
		t.Fatal(err)
	}
	if reps["wa"] != 1 || reps["wb"] != 2 {
		t.Fatalf("reps = %v, want wa:1 wb:2", reps)
	}
}

func TestSolveDownsampler(t *testing.T) {
	r, err := Solve(context.Background(), downsampler(0))
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != core.StatusOptimal {
		t.Fatalf("status %v", r.Status)
	}
	if r.Verification == nil || !r.Verification.OK {
		t.Fatalf("verification failed: %+v", r.Verification)
	}
	// Rate minima: wa fires 1×/10Mc → β ≥ 40·1/10 = 4;
	// wb fires 2×/10Mc → its sequencing cycle needs 2·40/β ≤ 10 → β ≥ 8.
	if r.Mapping.Budgets["wa"] < 4-1e-6 {
		t.Fatalf("budget(wa) = %v < 4", r.Mapping.Budgets["wa"])
	}
	if r.Mapping.Budgets["wb"] < 8-1e-6 {
		t.Fatalf("budget(wb) = %v < 8", r.Mapping.Budgets["wb"])
	}
	if r.Mapping.Capacities["bab"] < 2 {
		t.Fatalf("capacity %d cannot hold one production burst", r.Mapping.Capacities["bab"])
	}
}

// TestSolveSingleRateMatchesCore: on the paper's single-rate T1 the hybrid
// solver must agree with Algorithm 1 (budgets within rounding, same γ).
func TestSolveSingleRateMatchesCore(t *testing.T) {
	for _, cap := range []int{1, 4, 10} {
		cfg := gen.PaperT1(cap)
		want, err := core.Solve(context.Background(), cfg, core.Options{})
		if err != nil || want.Status != core.StatusOptimal {
			t.Fatalf("core: %v %v", want.Status, err)
		}
		got, err := Solve(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != core.StatusOptimal {
			t.Fatalf("cap %d: status %v", cap, got.Status)
		}
		for task := range want.Mapping.Budgets {
			// The γ-search lands on the same capacity, so budgets agree.
			if !almostEqual(got.Mapping.Budgets[task], want.Mapping.Budgets[task], 1e-4) {
				t.Fatalf("cap %d: budget(%s) %v vs core %v", cap, task,
					got.Mapping.Budgets[task], want.Mapping.Budgets[task])
			}
		}
		if got.Mapping.Capacities["bab"] != want.Mapping.Capacities["bab"] {
			t.Fatalf("cap %d: capacity %d vs core %d", cap,
				got.Mapping.Capacities["bab"], want.Mapping.Capacities["bab"])
		}
	}
}

// TestSolveUncappedSingleRate: without caps the saturation bound must be
// large enough to reach the true optimum (γ = 10, β = 4 on T1).
func TestSolveUncappedSingleRate(t *testing.T) {
	r, err := Solve(context.Background(), gen.PaperT1(0))
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != core.StatusOptimal {
		t.Fatalf("status %v", r.Status)
	}
	if !almostEqual(r.Mapping.Budgets["wa"], 4, 1e-4) {
		t.Fatalf("budget = %v, want 4", r.Mapping.Budgets["wa"])
	}
	if r.Mapping.Capacities["bab"] != 10 {
		t.Fatalf("capacity = %d, want 10", r.Mapping.Capacities["bab"])
	}
}

func TestSolveInfeasible(t *testing.T) {
	c := downsampler(0)
	c.Graphs[0].Period = 1 // wb needs 2 firings of 1 Mcycle work per 1 Mcycle
	r, err := Solve(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != core.StatusInfeasible {
		t.Fatalf("status %v, want infeasible", r.Status)
	}
}

func TestSolveCapBelowInitialTokens(t *testing.T) {
	c := downsampler(2)
	c.Graphs[0].Buffers[0].InitialTokens = 2
	c.Graphs[0].Buffers[0].MaxContainers = 1 // below ι → rejected by Validate
	if _, err := Solve(context.Background(), c); err == nil {
		t.Fatal("invalid bounds accepted")
	}
}

// TestSimulateMultiRateMapping: the solved downsampler meets its iteration
// throughput on the cycle-accurate simulator: firing k of each task
// completes no later than the expanded model's periodic schedule.
func TestSimulateMultiRateMapping(t *testing.T) {
	c := downsampler(0)
	r, err := Solve(context.Background(), c)
	if err != nil || r.Status != core.StatusOptimal {
		t.Fatalf("%v %v", r.Status, err)
	}
	res, err := sim.Run(c, r.Mapping, sim.Options{Firings: 200})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked {
		t.Fatal("deadlock")
	}
	tg := c.Graphs[0]
	g, idx, err := dfmodel.BuildGraph(c, tg, r.Mapping)
	if err != nil {
		t.Fatal(err)
	}
	starts, err := g.StartTimes(tg.Period)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range tg.Tasks {
		copies := idx.TaskCopies[w.Name]
		q := len(copies)
		for k, done := range res.Tasks[w.Name].Done {
			cp := copies[k%q]
			bound := starts[cp.V2] + g.Actor(cp.V2).Duration + float64(k/q)*tg.Period
			if done > bound*(1+1e-6)+1e-6 {
				t.Fatalf("task %s firing %d at %v exceeds model bound %v", w.Name, k+1, done, bound)
			}
		}
	}
}

// TestMultiRateChain: a 3-stage chain with mixed rates end to end.
func TestMultiRateChain(t *testing.T) {
	c := &taskgraph.Config{
		Name: "mixed",
		Processors: []taskgraph.Processor{
			{Name: "p1", Replenishment: 40},
			{Name: "p2", Replenishment: 40},
			{Name: "p3", Replenishment: 40},
		},
		Memories: []taskgraph.Memory{{Name: "m1", Capacity: 1 << 16}},
		Graphs: []*taskgraph.TaskGraph{{
			Name:   "mix",
			Period: 20,
			Tasks: []taskgraph.Task{
				{Name: "src", Processor: "p1", WCET: 1},
				{Name: "mid", Processor: "p2", WCET: 0.5},
				{Name: "dst", Processor: "p3", WCET: 2},
			},
			Buffers: []taskgraph.Buffer{
				// src: 1 firing producing 3; mid consumes 1 → q(mid) = 3.
				{Name: "b1", From: "src", To: "mid", Memory: "m1", Prod: 3, Cons: 1},
				// mid produces 1 each; dst consumes 3 → q(dst) = 1.
				{Name: "b2", From: "mid", To: "dst", Memory: "m1", Prod: 1, Cons: 3},
			},
		}},
	}
	reps, err := dfmodel.Repetitions(c.Graphs[0])
	if err != nil {
		t.Fatal(err)
	}
	if reps["src"] != 1 || reps["mid"] != 3 || reps["dst"] != 1 {
		t.Fatalf("reps = %v", reps)
	}
	r, err := Solve(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != core.StatusOptimal {
		t.Fatalf("status %v", r.Status)
	}
	if !r.Verification.OK {
		t.Fatalf("verification: %v", r.Verification.Problems)
	}
	// Simulate to be sure the real system sustains it.
	res, err := sim.Run(c, r.Mapping, sim.Options{Firings: 120})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked {
		t.Fatal("deadlock")
	}
}

// TestRandomMultiRateChains: random consistent multi-rate pipelines solve,
// verify, and simulate within the expanded model's per-firing bounds.
func TestRandomMultiRateChains(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		c := gen.RandomMultiRateChain(seed, 2+int(seed%3), 0.4)
		if err := c.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r, err := Solve(context.Background(), c)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if r.Status != core.StatusOptimal {
			t.Fatalf("seed %d: status %v", seed, r.Status)
		}
		if !r.Verification.OK {
			t.Fatalf("seed %d: %v", seed, r.Verification.Problems)
		}
		res, err := sim.Run(c, r.Mapping, sim.Options{Firings: 60})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Deadlocked {
			t.Fatalf("seed %d: deadlock", seed)
		}
		// Per-firing dominance against the expanded model.
		tg := c.Graphs[0]
		g, idx, err := dfmodel.BuildGraph(c, tg, r.Mapping)
		if err != nil {
			t.Fatal(err)
		}
		starts, err := g.StartTimes(tg.Period)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, w := range tg.Tasks {
			copies := idx.TaskCopies[w.Name]
			if copies == nil { // single-rate instance: one copy
				copies = []dfmodel.TaskActors{idx.Tasks[w.Name]}
			}
			q := len(copies)
			for k, done := range res.Tasks[w.Name].Done {
				cp := copies[k%q]
				bound := starts[cp.V2] + g.Actor(cp.V2).Duration + float64(k/q)*tg.Period
				if done > bound*(1+1e-6)+1e-6 {
					t.Fatalf("seed %d: task %s firing %d at %v exceeds bound %v",
						seed, w.Name, k+1, done, bound)
				}
			}
		}
	}
}

// TestExpandBufferSingleRateIdentity: the expansion of a unit-rate buffer is
// exactly the paper's data/space queue pair.
func TestExpandBufferSingleRateIdentity(t *testing.T) {
	b := &taskgraph.Buffer{Name: "b", From: "a", To: "c", InitialTokens: 2}
	deps, err := dfmodel.ExpandBuffer(b, 1, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(deps) != 2 {
		t.Fatalf("expected 2 dependencies, got %d: %+v", len(deps), deps)
	}
	for _, d := range deps {
		if d.Space {
			if d.Delta != 3 { // γ − ι = 5 − 2
				t.Fatalf("space delta = %d, want 3", d.Delta)
			}
		} else {
			if d.Delta != 2 { // ι
				t.Fatalf("data delta = %d, want 2", d.Delta)
			}
		}
	}
}

// TestExpandBufferRateMismatch: inconsistent repetition counts are rejected.
func TestExpandBufferRateMismatch(t *testing.T) {
	b := &taskgraph.Buffer{Name: "b", From: "a", To: "c", Prod: 2, Cons: 3}
	if _, err := dfmodel.ExpandBuffer(b, 1, 1, 5); err == nil {
		t.Fatal("inconsistent rates accepted")
	}
}

// TestSolveLatencyBound: every candidate's cone program carries the latency
// rows of Algorithm 1, so the search returns a mapping that meets a latency
// bound instead of one that fails verification on it.
func TestSolveLatencyBound(t *testing.T) {
	c, err := taskgraph.ReadFile("../../testdata/downsampler.json")
	if err != nil {
		t.Fatal(err)
	}
	c.Graphs[0].Latencies = []taskgraph.LatencyConstraint{{From: "wa", To: "wb", Bound: 40}}
	r, err := Solve(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != core.StatusOptimal {
		t.Fatalf("status %v", r.Status)
	}
	if r.Verification == nil || !r.Verification.OK {
		t.Fatalf("verification failed: %+v", r.Verification)
	}
	lat, err := dfmodel.LatencyBound(c, c.Graphs[0], r.Mapping, "wa", "wb")
	if err != nil {
		t.Fatal(err)
	}
	if lat > 40 {
		t.Fatalf("latency wa→wb = %v exceeds bound 40", lat)
	}
}
