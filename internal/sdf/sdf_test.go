package sdf

import (
	"math"
	"testing"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestRepetitionVectorClassic(t *testing.T) {
	// a --(2,3)--> b: q = (3, 2).
	g := NewGraph()
	a := g.AddActor("a", 1)
	b := g.AddActor("b", 1)
	g.AddEdge("ab", a, b, 2, 3, 0)
	q, err := g.RepetitionVector()
	if err != nil {
		t.Fatal(err)
	}
	if q[a] != 3 || q[b] != 2 {
		t.Fatalf("q = %v, want [3 2]", q)
	}
}

func TestRepetitionVectorChain(t *testing.T) {
	// a --(1,2)--> b --(3,1)--> c: q(b) = q(a)/2, q(c) = 3q(b) → (2,1,3).
	g := NewGraph()
	a := g.AddActor("a", 1)
	b := g.AddActor("b", 1)
	c := g.AddActor("c", 1)
	g.AddEdge("ab", a, b, 1, 2, 0)
	g.AddEdge("bc", b, c, 3, 1, 0)
	q, err := g.RepetitionVector()
	if err != nil {
		t.Fatal(err)
	}
	if q[a] != 2 || q[b] != 1 || q[c] != 3 {
		t.Fatalf("q = %v, want [2 1 3]", q)
	}
}

func TestInconsistentDetected(t *testing.T) {
	// a→b with (1,1) and a second edge (2,1): q(b) = q(a) and q(b) = 2q(a).
	g := NewGraph()
	a := g.AddActor("a", 1)
	b := g.AddActor("b", 1)
	g.AddEdge("e1", a, b, 1, 1, 0)
	g.AddEdge("e2", a, b, 2, 1, 0)
	if _, err := g.RepetitionVector(); err != ErrInconsistent {
		t.Fatalf("err = %v, want ErrInconsistent", err)
	}
	if g.Consistent() {
		t.Fatal("inconsistent graph reported consistent")
	}
}

func TestRepetitionVectorComponents(t *testing.T) {
	// Two disconnected single-rate actors: q = (1, 1), independently.
	g := NewGraph()
	a := g.AddActor("a", 1)
	b := g.AddActor("b", 2)
	g.AddEdge("aa", a, a, 1, 1, 1)
	g.AddEdge("bb", b, b, 1, 1, 1)
	q, err := g.RepetitionVector()
	if err != nil {
		t.Fatal(err)
	}
	if q[a] != 1 || q[b] != 1 {
		t.Fatalf("q = %v, want [1 1]", q)
	}
}

func TestValidateRejects(t *testing.T) {
	if err := NewGraph().Validate(); err == nil {
		t.Fatal("empty graph accepted")
	}
	g := NewGraph()
	a := g.AddActor("a", -1)
	if err := g.Validate(); err == nil {
		t.Fatal("negative duration accepted")
	}
	g2 := NewGraph()
	x := g2.AddActor("x", 1)
	g2.AddEdge("bad", x, x, 0, 1, 0)
	if err := g2.Validate(); err == nil {
		t.Fatal("zero production rate accepted")
	}
	g3 := NewGraph()
	y := g3.AddActor("y", 1)
	g3.AddEdge("bad", y, y, 1, 1, -1)
	if err := g3.Validate(); err == nil {
		t.Fatal("negative tokens accepted")
	}
	_ = a
}

func TestExpansionSingleRateIdentity(t *testing.T) {
	// A single-rate ring expands to itself (plus sequencing self-loops).
	g := NewGraph()
	a := g.AddActor("a", 2)
	b := g.AddActor("b", 4)
	g.AddEdge("ab", a, b, 1, 1, 1)
	g.AddEdge("ba", b, a, 1, 1, 2)
	ex, err := g.ToSRDF()
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Copies[a]) != 1 || len(ex.Copies[b]) != 1 {
		t.Fatalf("copies: %v", ex.Repetitions)
	}
	mp, err := ex.Graph.MinPeriodHoward()
	if err != nil {
		t.Fatal(err)
	}
	// Ring MCM = (2+4)/(1+2) = 2; self-loops give 2 and 4. Max = 4.
	if !almostEqual(mp, 4, 1e-9) {
		t.Fatalf("iteration period = %v, want 4", mp)
	}
}

func TestExpansionDownsampler(t *testing.T) {
	// a --(2,3)--> b, no tokens; serial actors (auto-concurrency off).
	// One iteration = 3 firings of a (1 each) and 2 of b (1 each).
	// The critical chain: a-sequence cycle 3·1 = 3; b cycle 2; dependency
	// a0,a1 → b0 and a1,a2 → b1 within the iteration.
	g := NewGraph()
	a := g.AddActor("a", 1)
	b := g.AddActor("b", 1)
	g.AddEdge("ab", a, b, 2, 3, 0)
	ex, err := g.ToSRDF()
	if err != nil {
		t.Fatal(err)
	}
	if ex.Repetitions[a] != 3 || ex.Repetitions[b] != 2 {
		t.Fatalf("repetitions %v", ex.Repetitions)
	}
	period, err := g.IterationPeriod()
	if err != nil {
		t.Fatal(err)
	}
	// The a-sequence cycle dominates: 3 time units per iteration.
	if !almostEqual(period, 3, 1e-9) {
		t.Fatalf("iteration period = %v, want 3", period)
	}
	// Self-timed latency sanity: b0 needs a0 and a1 (tokens 0..2 produced by
	// firings 0..1), so with durations 1, b0 can start at 2 at the earliest.
	starts, err := ex.Graph.SelfTimed(3)
	if err != nil {
		t.Fatal(err)
	}
	if got := starts[ex.Copies[b][0]][0]; !almostEqual(got, 2, 1e-9) {
		t.Fatalf("b#0 first start = %v, want 2", got)
	}
}

func TestExpansionWithInitialTokens(t *testing.T) {
	// Ring a→b (1,1,2 tokens), b→a (1,1,0): classic two-stage pipeline.
	g := NewGraph()
	a := g.AddActor("a", 3)
	b := g.AddActor("b", 5)
	g.AddEdge("ab", a, b, 1, 1, 2)
	g.AddEdge("ba", b, a, 1, 1, 0)
	period, err := g.IterationPeriod()
	if err != nil {
		t.Fatal(err)
	}
	// Cycle a→b→a: (3+5)/(2+0) = 4; self-loops 3 and 5 → MCM = 5.
	if !almostEqual(period, 5, 1e-9) {
		t.Fatalf("period = %v, want 5", period)
	}
}

func TestDeadlockDetection(t *testing.T) {
	// Token-free cycle deadlocks.
	g := NewGraph()
	a := g.AddActor("a", 1)
	b := g.AddActor("b", 1)
	g.AddEdge("ab", a, b, 1, 1, 0)
	g.AddEdge("ba", b, a, 1, 1, 0)
	free, err := g.DeadlockFree()
	if err != nil {
		t.Fatal(err)
	}
	if free {
		t.Fatal("deadlock not detected")
	}
	// One token frees it.
	g2 := NewGraph()
	a2 := g2.AddActor("a", 1)
	b2 := g2.AddActor("b", 1)
	g2.AddEdge("ab", a2, b2, 1, 1, 1)
	g2.AddEdge("ba", b2, a2, 1, 1, 0)
	free2, err := g2.DeadlockFree()
	if err != nil {
		t.Fatal(err)
	}
	if !free2 {
		t.Fatal("live graph reported deadlocked")
	}
}

func TestMultiRateDeadlockNeedsFullBatch(t *testing.T) {
	// b consumes 3 per firing from a cycle holding only 2 tokens: deadlock
	// even though tokens are present.
	g := NewGraph()
	a := g.AddActor("a", 1)
	b := g.AddActor("b", 1)
	g.AddEdge("ab", a, b, 3, 3, 2)
	g.AddEdge("ba", b, a, 1, 1, 0)
	free, err := g.DeadlockFree()
	if err != nil {
		t.Fatal(err)
	}
	if free {
		t.Fatal("insufficient-batch deadlock not detected")
	}
}

func TestIterationPeriodMultiRatePipeline(t *testing.T) {
	// Upsampler: a --(3,1)--> b with a slow a: q = (1, 3).
	// Iteration: 1 firing of a (duration 4), 3 of b (duration 1 each,
	// serial). b's firings all depend on a's single firing.
	g := NewGraph()
	a := g.AddActor("a", 4)
	b := g.AddActor("b", 1)
	g.AddEdge("ab", a, b, 3, 1, 0)
	period, err := g.IterationPeriod()
	if err != nil {
		t.Fatal(err)
	}
	// Cycles: a self-sequence 4/1 = 4; b sequence 3/1 = 3 → 4.
	if !almostEqual(period, 4, 1e-9) {
		t.Fatalf("period = %v, want 4", period)
	}
	// Throughput interpretation: b fires 3 times per 4 time units.
	ex, _ := g.ToSRDF()
	if ex.Repetitions[b] != 3 {
		t.Fatalf("q(b) = %d", ex.Repetitions[b])
	}
}

func TestAccessors(t *testing.T) {
	g := NewGraph()
	a := g.AddActor("a", 2.5)
	if g.NumActors() != 1 || g.Actor(a).Duration != 2.5 || g.Actor(a).Name != "a" {
		t.Fatal("accessors broken")
	}
}
