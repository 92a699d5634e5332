package dfmodel

import (
	"math"
	"strings"
	"testing"

	"repro/internal/srdf"
	"repro/internal/taskgraph"
)

// numEdges counts g's edges. Edge ids are dense from 0, so the count is the
// first id Edge rejects.
func numEdges(g *srdf.Graph) (n int) {
	defer func() { _ = recover() }()
	for ; ; n++ {
		g.Edge(srdf.EdgeID(n))
	}
}

// t1Config is the paper's producer-consumer configuration.
func t1Config() *taskgraph.Config {
	return &taskgraph.Config{
		Processors: []taskgraph.Processor{
			{Name: "p1", Replenishment: 40},
			{Name: "p2", Replenishment: 40},
		},
		Memories: []taskgraph.Memory{{Name: "m1", Capacity: 1000}},
		Graphs: []*taskgraph.TaskGraph{{
			Name:   "T1",
			Period: 10,
			Tasks: []taskgraph.Task{
				{Name: "wa", Processor: "p1", WCET: 1},
				{Name: "wb", Processor: "p2", WCET: 1},
			},
			Buffers: []taskgraph.Buffer{
				{Name: "bab", From: "wa", To: "wb", Memory: "m1"},
			},
		}},
	}
}

func mapping(beta float64, gamma int) *taskgraph.Mapping {
	return &taskgraph.Mapping{
		Budgets:    map[string]float64{"wa": beta, "wb": beta},
		Capacities: map[string]int{"bab": gamma},
	}
}

func TestBuildGraphStructure(t *testing.T) {
	c := t1Config()
	g, idx, err := BuildGraph(c, c.Graphs[0], mapping(10, 5))
	if err != nil {
		t.Fatal(err)
	}
	// 2 actors per task, 2 intra-task edges per task + 2 per buffer.
	if g.NumActors() != 4 {
		t.Fatalf("actors = %d, want 4", g.NumActors())
	}
	if n := numEdges(g); n != 6 {
		t.Fatalf("edges = %d, want 6", n)
	}
	wa := idx.Tasks["wa"]
	if got := g.Actor(wa.V1).Duration; got != 30 {
		t.Fatalf("v1 duration = %v, want 40-10 = 30", got)
	}
	if got := g.Actor(wa.V2).Duration; got != 4 {
		t.Fatalf("v2 duration = %v, want 40·1/10 = 4", got)
	}
	be := idx.Buffers["bab"]
	if g.Edge(be.Data).Tokens != 0 {
		t.Fatalf("data tokens = %d, want ι = 0", g.Edge(be.Data).Tokens)
	}
	if g.Edge(be.Space).Tokens != 5 {
		t.Fatalf("space tokens = %d, want γ−ι = 5", g.Edge(be.Space).Tokens)
	}
}

func TestBuildGraphInitialTokens(t *testing.T) {
	c := t1Config()
	c.Graphs[0].Buffers[0].InitialTokens = 2
	g, idx, err := BuildGraph(c, c.Graphs[0], mapping(10, 5))
	if err != nil {
		t.Fatal(err)
	}
	be := idx.Buffers["bab"]
	if g.Edge(be.Data).Tokens != 2 || g.Edge(be.Space).Tokens != 3 {
		t.Fatalf("tokens: data %d space %d, want 2 and 3", g.Edge(be.Data).Tokens, g.Edge(be.Space).Tokens)
	}
}

func TestBuildGraphRejects(t *testing.T) {
	c := t1Config()
	if _, _, err := BuildGraph(c, c.Graphs[0], mapping(0, 5)); err == nil {
		t.Fatal("zero budget accepted")
	}
	if _, _, err := BuildGraph(c, c.Graphs[0], mapping(41, 5)); err == nil {
		t.Fatal("budget above replenishment accepted")
	}
	if _, _, err := BuildGraph(c, c.Graphs[0], mapping(10, 0)); err == nil {
		t.Fatal("zero capacity accepted")
	}
	m := mapping(10, 5)
	delete(m.Budgets, "wb")
	if _, _, err := BuildGraph(c, c.Graphs[0], m); err == nil {
		t.Fatal("missing budget accepted")
	}
	m2 := mapping(10, 5)
	delete(m2.Capacities, "bab")
	if _, _, err := BuildGraph(c, c.Graphs[0], m2); err == nil {
		t.Fatal("missing capacity accepted")
	}
	c.Graphs[0].Buffers[0].InitialTokens = 9
	if _, _, err := BuildGraph(c, c.Graphs[0], mapping(10, 5)); err == nil {
		t.Fatal("capacity below initial tokens accepted")
	}
}

// TestMinPeriodMatchesAnalytic: the SRDF model's minimum period must equal
// max(cycle through both tasks, self-loop rate) — the formula from
// DESIGN.md §3.
func TestMinPeriodMatchesAnalytic(t *testing.T) {
	c := t1Config()
	for _, tc := range []struct {
		beta  float64
		gamma int
	}{
		{36.2, 1}, {31.5, 2}, {10, 5}, {4.5, 9}, {4, 10}, {40, 1},
	} {
		g, _, err := BuildGraph(c, c.Graphs[0], mapping(tc.beta, tc.gamma))
		if err != nil {
			t.Fatal(err)
		}
		mp, err := g.MinPeriodHoward()
		if err != nil {
			t.Fatal(err)
		}
		want := math.Max(
			(2*(40-tc.beta)+2*40/tc.beta)/float64(tc.gamma),
			40/tc.beta)
		if math.Abs(mp-want) > 1e-8*math.Max(1, want) {
			t.Fatalf("β=%v γ=%d: MinPeriod = %v, want %v", tc.beta, tc.gamma, mp, want)
		}
	}
}

func TestVerifyAcceptsGoodMapping(t *testing.T) {
	c := t1Config()
	// β = 36.2, γ = 1 satisfies the d=1 bound (β* ≈ 36.108).
	v, err := Verify(c, mapping(36.2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !v.OK {
		t.Fatalf("verification failed: %v", v.Problems)
	}
	if v.GraphMinPeriods["T1"] > 10 {
		t.Fatalf("min period %v > 10", v.GraphMinPeriods["T1"])
	}
	if v.ProcessorLoads["p1"] != 36.2 {
		t.Fatalf("processor load %v", v.ProcessorLoads["p1"])
	}
	if v.MemoryUse["m1"] != 1 {
		t.Fatalf("memory use %v", v.MemoryUse["m1"])
	}
}

func TestVerifyRejectsThroughputViolation(t *testing.T) {
	c := t1Config()
	// β = 20, γ = 1: cycle mean = (2·20 + 2·2)/1 = 44 > 10.
	v, err := Verify(c, mapping(20, 1))
	if err != nil {
		t.Fatal(err)
	}
	if v.OK {
		t.Fatal("throughput-violating mapping accepted")
	}
	found := false
	for _, p := range v.Problems {
		if strings.Contains(p, "minimum period") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a period problem, got %v", v.Problems)
	}
}

// TestVerifyNamesCriticalCycle: an under-budgeted T1 mapping fails the
// period check on the cycle through both tasks (β = 20, γ = 1: mean 44 >
// 10), and the problem names that cycle's actors in firing order.
func TestVerifyNamesCriticalCycle(t *testing.T) {
	c := t1Config()
	v, err := Verify(c, mapping(20, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := "graph T1: minimum period 44 exceeds required period 10 on cycle wa.v1 → wa.v2 → wb.v1 → wb.v2"
	if v.OK || len(v.Problems) != 1 || v.Problems[0] != want {
		t.Fatalf("problems %q, want [%q]", v.Problems, want)
	}
}

func TestVerifyRejectsOverload(t *testing.T) {
	c := t1Config()
	// Two tasks on the same processor with budgets summing over 40.
	c.Graphs[0].Tasks[1].Processor = "p1"
	v, err := Verify(c, mapping(25, 10))
	if err != nil {
		t.Fatal(err)
	}
	if v.OK {
		t.Fatal("overloaded processor accepted")
	}
}

func TestVerifyRejectsMemoryOverflow(t *testing.T) {
	c := t1Config()
	c.Memories[0].Capacity = 3
	v, err := Verify(c, mapping(36.2, 4))
	if err != nil {
		t.Fatal(err)
	}
	if v.OK {
		t.Fatal("memory overflow accepted")
	}
}

func TestVerifyRejectsCapViolations(t *testing.T) {
	c := t1Config()
	c.Graphs[0].Buffers[0].MaxContainers = 3
	v, err := Verify(c, mapping(36.2, 4))
	if err != nil {
		t.Fatal(err)
	}
	if v.OK {
		t.Fatal("capacity above MaxContainers accepted")
	}
	c2 := t1Config()
	c2.Graphs[0].Buffers[0].MinContainers = 5
	v2, err := Verify(c2, mapping(36.2, 4))
	if err != nil {
		t.Fatal(err)
	}
	if v2.OK {
		t.Fatal("capacity below MinContainers accepted")
	}
}

func TestVerifyOverheadCounts(t *testing.T) {
	c := t1Config()
	c.Processors[0].Overhead = 10
	// β = 36.2 + overhead 10 > 40.
	v, err := Verify(c, mapping(36.2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if v.OK {
		t.Fatal("overhead-violating load accepted")
	}
}

func TestVerifyInvalidConfig(t *testing.T) {
	c := t1Config()
	c.Graphs = nil
	if _, err := Verify(c, mapping(10, 5)); err == nil {
		t.Fatal("invalid config accepted")
	}
}
