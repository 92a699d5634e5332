package srdf

import (
	"math"
	"testing"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestGraphBasics(t *testing.T) {
	g := NewGraph()
	a := g.AddActor("a", 2)
	b := g.AddActor("b", 3)
	e := g.AddEdge("ab", a, b, 1)
	if g.NumActors() != 2 || len(g.edges) != 1 {
		t.Fatalf("counts: %d actors, %d edges", g.NumActors(), len(g.edges))
	}
	if g.Actor(a).Duration != 2 || g.Actor(b).Name != "b" {
		t.Fatal("actor accessors broken")
	}
	if g.Edge(e).From != a || g.Edge(e).To != b || g.Edge(e).Tokens != 1 {
		t.Fatal("edge accessors broken")
	}
	if len(g.out[a]) != 1 || len(g.in[b]) != 1 || len(g.in[a]) != 0 {
		t.Fatal("adjacency broken")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	empty := NewGraph()
	if err := empty.Validate(); err == nil {
		t.Fatal("empty graph accepted")
	}
	g := NewGraph()
	a := g.AddActor("a", -1)
	if err := g.Validate(); err == nil {
		t.Fatal("negative duration accepted")
	}
	g.actors[a].Duration = 1
	e := g.AddEdge("self", a, a, 1)
	g.edges[e].Tokens = -1
	if err := g.Validate(); err == nil {
		t.Fatal("negative tokens accepted")
	}
}

func TestDeadlockDetection(t *testing.T) {
	g := NewGraph()
	a := g.AddActor("a", 1)
	b := g.AddActor("b", 1)
	g.AddEdge("ab", a, b, 0)
	g.AddEdge("ba", b, a, 0)
	if g.DeadlockFree() {
		t.Fatal("token-free cycle not detected")
	}
	// One token on the cycle fixes it.
	g2 := NewGraph()
	a2 := g2.AddActor("a", 1)
	b2 := g2.AddActor("b", 1)
	g2.AddEdge("ab", a2, b2, 0)
	g2.AddEdge("ba", b2, a2, 1)
	if !g2.DeadlockFree() {
		t.Fatal("live cycle reported as deadlocked")
	}
	// Acyclic is always deadlock-free.
	g3 := NewGraph()
	x := g3.AddActor("x", 1)
	y := g3.AddActor("y", 1)
	g3.AddEdge("xy", x, y, 0)
	if !g3.DeadlockFree() {
		t.Fatal("acyclic graph reported as deadlocked")
	}
}

func TestClone(t *testing.T) {
	g := NewGraph()
	a := g.AddActor("a", 1)
	g.AddEdge("aa", a, a, 1)
	c := g.Clone()
	c.actors[a].Duration = 9
	c.edges[0].Tokens = 5
	if g.Actor(a).Duration != 1 || g.Edge(0).Tokens != 1 {
		t.Fatal("Clone shares state")
	}
}

// Single self-loop actor: MCM = ρ/δ.
func TestMinPeriodSelfLoop(t *testing.T) {
	g := NewGraph()
	a := g.AddActor("a", 6)
	g.AddEdge("aa", a, a, 2)
	got, err := g.MinPeriod()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 3, 1e-9) {
		t.Fatalf("MinPeriod = %v, want 3", got)
	}
}

// Two-actor ring: MCM = (ρa + ρb) / (δab + δba).
func TestMinPeriodRing(t *testing.T) {
	g := NewGraph()
	a := g.AddActor("a", 2)
	b := g.AddActor("b", 4)
	g.AddEdge("ab", a, b, 1)
	g.AddEdge("ba", b, a, 2)
	got, err := g.MinPeriod()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 2, 1e-9) {
		t.Fatalf("MinPeriod = %v, want 2", got)
	}
}

// Two cycles; the slower one dominates.
func TestMinPeriodTwoCycles(t *testing.T) {
	g := NewGraph()
	a := g.AddActor("a", 1)
	b := g.AddActor("b", 1)
	c := g.AddActor("c", 10)
	g.AddEdge("ab", a, b, 1)
	g.AddEdge("ba", b, a, 1) // cycle mean (1+1)/2 = 1
	g.AddEdge("ac", a, c, 1)
	g.AddEdge("ca", c, a, 1) // cycle mean (1+10)/2 = 5.5
	got, err := g.MinPeriod()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 5.5, 1e-9) {
		t.Fatalf("MinPeriod = %v, want 5.5", got)
	}
}

func TestMinPeriodAcyclic(t *testing.T) {
	g := NewGraph()
	a := g.AddActor("a", 5)
	b := g.AddActor("b", 7)
	g.AddEdge("ab", a, b, 0)
	got, err := g.MinPeriod()
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("MinPeriod of acyclic graph = %v, want 0", got)
	}
}

func TestMinPeriodDeadlock(t *testing.T) {
	g := NewGraph()
	a := g.AddActor("a", 1)
	b := g.AddActor("b", 1)
	g.AddEdge("ab", a, b, 0)
	g.AddEdge("ba", b, a, 0)
	if _, err := g.MinPeriod(); err != ErrDeadlock {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	if _, err := g.MinPeriodHoward(); err != ErrDeadlock {
		t.Fatalf("Howard err = %v, want ErrDeadlock", err)
	}
	if _, err := g.SelfTimed(4); err != ErrDeadlock {
		t.Fatalf("SelfTimed err = %v, want ErrDeadlock", err)
	}
}

// The paper's two-actor task model: v1 (ρ−β) → v2 (ρχ/β) with a self-loop on
// v2; data/space queues to the consumer. MinPeriod must match the binding
// cycle computed analytically (DESIGN.md §3).
func TestMinPeriodPaperModel(t *testing.T) {
	const r, chi, mu = 40.0, 1.0, 10.0
	for d := 1; d <= 10; d++ {
		beta := 36.107794065928395 // β*(1); vary d with a fixed β: feasibility flips
		g := NewGraph()
		a1 := g.AddActor("a1", r-beta)
		a2 := g.AddActor("a2", r*chi/beta)
		b1 := g.AddActor("b1", r-beta)
		b2 := g.AddActor("b2", r*chi/beta)
		g.AddEdge("a1a2", a1, a2, 0)
		g.AddEdge("a2a2", a2, a2, 1)
		g.AddEdge("b1b2", b1, b2, 0)
		g.AddEdge("b2b2", b2, b2, 1)
		g.AddEdge("data", a2, b1, 0)
		g.AddEdge("space", b2, a1, d)
		mcm, err := g.MinPeriod()
		if err != nil {
			t.Fatal(err)
		}
		// Cycle through both components: mean = (2(r−β)+2r/β)/d;
		// self-loops: r/β.
		want := math.Max((2*(r-beta)+2*r/beta)/float64(d), r/beta)
		if !almostEqual(mcm, want, 1e-9) {
			t.Fatalf("d=%d: MinPeriod = %v, want %v", d, mcm, want)
		}
		if d == 1 {
			// β was chosen to make d=1 exactly meet µ = 10.
			if !almostEqual(mcm, mu, 1e-6) {
				t.Fatalf("calibrated instance: MCM = %v, want 10", mcm)
			}
		}
	}
}

func TestStartTimesSatisfyConstraint(t *testing.T) {
	g := NewGraph()
	a := g.AddActor("a", 2)
	b := g.AddActor("b", 4)
	g.AddEdge("ab", a, b, 1)
	g.AddEdge("ba", b, a, 2)
	s, err := g.StartTimes(2.5) // feasible: MCM = 2
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckPAS(s, 2.5); err != nil {
		t.Fatal(err)
	}
	// Normalized: min is 0.
	if min := math.Min(s[0], s[1]); min != 0 {
		t.Fatalf("start times not normalized: %v", s)
	}
	// Infeasible period must fail.
	if _, err := g.StartTimes(1.5); err == nil {
		t.Fatal("period below MCM accepted")
	}
	if g.FeasiblePeriod(1.5) || !g.FeasiblePeriod(2.5) {
		t.Fatal("FeasiblePeriod inconsistent")
	}
}

func TestStartTimesRejectsBadPeriod(t *testing.T) {
	g := NewGraph()
	g.AddActor("a", 1)
	if _, err := g.StartTimes(0); err == nil {
		t.Fatal("zero period accepted")
	}
	if _, err := g.StartTimes(-1); err == nil {
		t.Fatal("negative period accepted")
	}
}

func TestCheckPASLengthMismatch(t *testing.T) {
	g := NewGraph()
	g.AddActor("a", 1)
	if err := g.CheckPAS([]float64{0, 0}, 1); err == nil {
		t.Fatal("length mismatch accepted")
	}
}
