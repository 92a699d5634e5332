package dfmodel

import (
	"testing"

	"repro/internal/taskgraph"
)

// mrConfig returns a 2:1 multi-rate producer-consumer configuration.
func mrConfig() *taskgraph.Config {
	return &taskgraph.Config{
		Processors: []taskgraph.Processor{
			{Name: "p1", Replenishment: 40},
			{Name: "p2", Replenishment: 40},
		},
		Memories: []taskgraph.Memory{{Name: "m1", Capacity: 1000}},
		Graphs: []*taskgraph.TaskGraph{{
			Name:   "mr",
			Period: 10,
			Tasks: []taskgraph.Task{
				{Name: "wa", Processor: "p1", WCET: 1},
				{Name: "wb", Processor: "p2", WCET: 1},
			},
			Buffers: []taskgraph.Buffer{{
				Name: "bab", From: "wa", To: "wb", Memory: "m1", Prod: 2, Cons: 1,
			}},
		}},
	}
}

func TestRepetitionsSingleRate(t *testing.T) {
	c := t1Config()
	reps, err := Repetitions(c.Graphs[0])
	if err != nil {
		t.Fatal(err)
	}
	if reps["wa"] != 1 || reps["wb"] != 1 {
		t.Fatalf("reps = %v", reps)
	}
}

func TestRepetitionsMultiRate(t *testing.T) {
	c := mrConfig()
	reps, err := Repetitions(c.Graphs[0])
	if err != nil {
		t.Fatal(err)
	}
	if reps["wa"] != 1 || reps["wb"] != 2 {
		t.Fatalf("reps = %v", reps)
	}
}

func TestRepetitionsInconsistent(t *testing.T) {
	c := mrConfig()
	// Add a second buffer with contradictory rates.
	c.Graphs[0].Buffers = append(c.Graphs[0].Buffers, taskgraph.Buffer{
		Name: "b2", From: "wa", To: "wb", Memory: "m1", Prod: 1, Cons: 1,
	})
	if _, err := Repetitions(c.Graphs[0]); err == nil {
		t.Fatal("inconsistent rates accepted")
	}
}

func TestBuildGraphMultiRateStructure(t *testing.T) {
	c := mrConfig()
	m := &taskgraph.Mapping{
		Budgets:    map[string]float64{"wa": 10, "wb": 10},
		Capacities: map[string]int{"bab": 4},
	}
	g, idx, err := BuildGraph(c, c.Graphs[0], m)
	if err != nil {
		t.Fatal(err)
	}
	// wa: 1 copy (2 actors); wb: 2 copies (4 actors) → 6 actors.
	if g.NumActors() != 6 {
		t.Fatalf("actors = %d, want 6", g.NumActors())
	}
	if len(idx.TaskCopies["wa"]) != 1 || len(idx.TaskCopies["wb"]) != 2 {
		t.Fatalf("copies: %v", idx.Repetitions)
	}
	if idx.Repetitions["wb"] != 2 {
		t.Fatalf("repetitions: %v", idx.Repetitions)
	}
	// The model must admit a PAS for a generous period and be deadlock-free.
	if !g.DeadlockFree() {
		t.Fatal("expanded model deadlocks")
	}
	mp, err := g.MinPeriodHoward()
	if err != nil {
		t.Fatal(err)
	}
	if mp <= 0 {
		t.Fatalf("min period = %v", mp)
	}
}

func TestVerifyMultiRate(t *testing.T) {
	c := mrConfig()
	// Budgets: wa fires once per 10 Mcycles (β ≥ 4); wb fires twice
	// (sequencing cycle: 2·40/β ≤ 10 → β ≥ 8). Generous capacity.
	good := &taskgraph.Mapping{
		Budgets:    map[string]float64{"wa": 30, "wb": 30},
		Capacities: map[string]int{"bab": 12},
	}
	v, err := Verify(c, good)
	if err != nil {
		t.Fatal(err)
	}
	if !v.OK {
		t.Fatalf("good multi-rate mapping rejected: %v", v.Problems)
	}
	// Rate-infeasible budget for wb.
	bad := &taskgraph.Mapping{
		Budgets:    map[string]float64{"wa": 30, "wb": 7},
		Capacities: map[string]int{"bab": 12},
	}
	v2, err := Verify(c, bad)
	if err != nil {
		t.Fatal(err)
	}
	if v2.OK {
		t.Fatal("rate-infeasible multi-rate mapping accepted")
	}
}

func TestExpandBufferMultiRateDeltas(t *testing.T) {
	// p=2, c=1, ι=0, γ=2, qFrom=1, qTo=2: wb's firing j consumes token j;
	// both produced by wa firing 0 of the same iteration (δ=0 data deps).
	b := &taskgraph.Buffer{Name: "b", From: "a", To: "c", Prod: 2, Cons: 1}
	deps, err := ExpandBuffer(b, 1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	var nData, nSpace int
	for _, d := range deps {
		if d.Space {
			nSpace++
			// Producer needs 2 free: freed by consumer firings of earlier
			// iterations; distances must be positive.
			if d.Delta < 1 {
				t.Fatalf("space dep with delta %d", d.Delta)
			}
		} else {
			nData++
			if d.SrcCopy != 0 {
				t.Fatalf("data dep from copy %d", d.SrcCopy)
			}
			if d.Delta != 0 {
				t.Fatalf("data delta = %d, want 0 (same iteration)", d.Delta)
			}
		}
	}
	if nData != 2 || nSpace == 0 {
		t.Fatalf("deps: %d data, %d space: %+v", nData, nSpace, deps)
	}
}

func TestExpandBufferCapacityBelowTokens(t *testing.T) {
	b := &taskgraph.Buffer{Name: "b", From: "a", To: "c", InitialTokens: 5}
	if _, err := ExpandBuffer(b, 1, 1, 3); err == nil {
		t.Fatal("capacity below initial tokens accepted")
	}
}

func TestBuildGraphMultiRateErrors(t *testing.T) {
	c := mrConfig()
	// Missing budget.
	if _, _, err := BuildGraph(c, c.Graphs[0], &taskgraph.Mapping{
		Budgets:    map[string]float64{"wa": 10},
		Capacities: map[string]int{"bab": 4},
	}); err == nil {
		t.Fatal("missing budget accepted")
	}
	// Missing capacity.
	if _, _, err := BuildGraph(c, c.Graphs[0], &taskgraph.Mapping{
		Budgets:    map[string]float64{"wa": 10, "wb": 10},
		Capacities: map[string]int{},
	}); err == nil {
		t.Fatal("missing capacity accepted")
	}
	// Inconsistent rates.
	c2 := mrConfig()
	c2.Graphs[0].Buffers = append(c2.Graphs[0].Buffers, taskgraph.Buffer{
		Name: "b2", From: "wa", To: "wb", Memory: "m1",
	})
	if _, _, err := BuildGraph(c2, c2.Graphs[0], &taskgraph.Mapping{
		Budgets:    map[string]float64{"wa": 10, "wb": 10},
		Capacities: map[string]int{"bab": 4, "b2": 4},
	}); err == nil {
		t.Fatal("inconsistent graph accepted")
	}
}
