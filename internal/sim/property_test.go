package sim

import (
	"context"
	"maps"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/taskgraph"
)

// TestBufferMonotonicity: enlarging any buffer can never delay any firing of
// any task — the implementation-level analogue of SRDF temporal
// monotonicity, checked on the simulator.
func TestBufferMonotonicity(t *testing.T) {
	c, m := solveT1(t, 3)
	base, err := Run(c, m, Options{Firings: 150})
	if err != nil {
		t.Fatal(err)
	}
	bigger := &taskgraph.Mapping{Budgets: m.Budgets, Capacities: maps.Clone(m.Capacities), Objective: m.Objective}
	bigger.Capacities["bab"] = m.Capacities["bab"] + 2
	more, err := Run(c, bigger, Options{Firings: 150})
	if err != nil {
		t.Fatal(err)
	}
	for task, st := range base.Tasks {
		for k, done := range more.Tasks[task].Done {
			if done > st.Done[k]+1e-9 {
				t.Fatalf("task %s firing %d delayed by a larger buffer: %v > %v",
					task, k+1, done, st.Done[k])
			}
		}
	}
}

// TestBudgetMonotonicity: enlarging a task's budget (keeping the slice
// placement at offset 0) can never delay that task's service completion.
func TestBudgetMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rho := 20 + rng.Float64()*40
		beta := 1 + rng.Float64()*(rho/2)
		start := rng.Float64() * 100
		work := rng.Float64() * 20
		c1 := serviceCompletion(rho, 0, beta, start, work)
		c2 := serviceCompletion(rho, 0, beta*1.5, start, work)
		return c2 <= c1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestExecTimeMonotonicity: a run where every firing is faster can never
// finish any firing later.
func TestExecTimeMonotonicity(t *testing.T) {
	c, m := solveT1(t, 2)
	slow, err := Run(c, m, Options{Firings: 150})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Run(c, m, Options{
		Firings: 150,
		Exec:    func(task string, firing int) float64 { return 0.5 }, // half the WCET
	})
	if err != nil {
		t.Fatal(err)
	}
	for task, st := range slow.Tasks {
		for k, done := range fast.Tasks[task].Done {
			if done > st.Done[k]+1e-9 {
				t.Fatalf("task %s firing %d delayed by faster execution", task, k+1)
			}
		}
	}
}

// TestSimulationDeterministic: identical runs produce identical traces.
func TestSimulationDeterministic(t *testing.T) {
	c, m := solveT1(t, 4)
	a, err := Run(c, m, Options{Firings: 100})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(c, m, Options{Firings: 100})
	if err != nil {
		t.Fatal(err)
	}
	for task, st := range a.Tasks {
		for k, done := range st.Done {
			if b.Tasks[task].Done[k] != done {
				t.Fatalf("nondeterministic trace at %s firing %d", task, k+1)
			}
		}
	}
}

// TestInitialTokensPipeline: a buffer pre-filled with tokens lets the
// consumer start before the producer's first completion.
func TestInitialTokensPipeline(t *testing.T) {
	c := gen.PaperT1(0)
	c.Graphs[0].Buffers[0].InitialTokens = 2
	r, err := core.Solve(context.Background(), c, core.Options{})
	if err != nil || r.Status != core.StatusOptimal {
		t.Fatalf("%v %v", r.Status, err)
	}
	res, err := Run(c, r.Mapping, Options{Firings: 50})
	if err != nil {
		t.Fatal(err)
	}
	// The consumer's first completion does not need to wait for the
	// producer: it can be no later than its own isolated service time for
	// one firing from t = 0 upper-bounded by (ϱ−β) + ϱχ/β.
	beta := r.Mapping.Budgets["wb"]
	bound := (40 - beta) + 40*1/beta
	if first := res.Tasks["wb"].Done[0]; first > bound+1e-9 {
		t.Fatalf("consumer first completion %v despite pre-filled tokens (bound %v)", first, bound)
	}
	_ = taskgraph.DefaultGranularity
}
