package srdf

import (
	"math"
	"math/rand"
	"testing"
)

// randLiveGraph generates a random strongly-connected-ish live SRDF graph:
// a ring backbone (guaranteeing liveness and a cycle) plus random chords.
func randLiveGraph(rng *rand.Rand, n int) *Graph {
	g := NewGraph()
	ids := make([]ActorID, n)
	for i := 0; i < n; i++ {
		ids[i] = g.AddActor("", 0.1+rng.Float64()*5)
	}
	for i := 0; i < n; i++ {
		g.AddEdge("", ids[i], ids[(i+1)%n], 1+rng.Intn(3))
	}
	extra := rng.Intn(2 * n)
	for k := 0; k < extra; k++ {
		from := rng.Intn(n)
		to := rng.Intn(n)
		g.AddEdge("", ids[from], ids[to], 1+rng.Intn(4))
	}
	return g
}

// bruteForceMCM enumerates all simple cycles (small graphs only) and returns
// the maximum of Σρ/Σδ.
func bruteForceMCM(g *Graph) float64 {
	n := g.NumActors()
	best := 0.0
	var dfs func(start, cur int, visited []bool, dur float64, tok int)
	dfs = func(start, cur int, visited []bool, dur float64, tok int) {
		for _, eid := range g.OutEdges(ActorID(cur)) {
			e := g.Edge(eid)
			to := int(e.To)
			nd := dur + g.Actor(ActorID(cur)).Duration
			nt := tok + e.Tokens
			if to == start {
				if nt > 0 && nd/float64(nt) > best {
					best = nd / float64(nt)
				}
				continue
			}
			if to > start && !visited[to] { // canonical: cycle's smallest node is start
				visited[to] = true
				dfs(start, to, visited, nd, nt)
				visited[to] = false
			}
		}
	}
	for s := 0; s < n; s++ {
		visited := make([]bool, n)
		visited[s] = true
		dfs(s, s, visited, 0, 0)
	}
	return best
}

// TestMCMAgainstBruteForce compares the binary search against explicit cycle
// enumeration on small random graphs.
func TestMCMAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 60; trial++ {
		g := randLiveGraph(rng, 2+rng.Intn(5))
		want := bruteForceMCM(g)
		got, err := g.MinPeriod()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !almostEqual(got, want, 1e-8) {
			t.Fatalf("trial %d: MinPeriod = %v, brute force = %v", trial, got, want)
		}
	}
}

// TestHowardAgreesWithLawler cross-checks the two MCM algorithms on random
// graphs of up to a few hundred actors.
func TestHowardAgreesWithLawler(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(20)
		if trial%3 == 0 {
			n = 100 + rng.Intn(300)
		}
		g := randLiveGraph(rng, n)
		lawler, err := g.MinPeriod()
		if err != nil {
			t.Fatalf("trial %d lawler: %v", trial, err)
		}
		howard, err := g.MinPeriodHoward()
		if err != nil {
			t.Fatalf("trial %d howard: %v", trial, err)
		}
		if !almostEqual(lawler, howard, 1e-9) {
			t.Fatalf("trial %d (%d actors): lawler %v != howard %v", trial, n, lawler, howard)
		}
	}
}

// TestCriticalCycleIsACycleAtTheMCM: the cycle CriticalCycle returns is a
// cycle of the graph, starts at its smallest actor, and its mean is the
// MCM.
func TestCriticalCycleIsACycleAtTheMCM(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 60; trial++ {
		g := randLiveGraph(rng, 2+rng.Intn(40))
		cycle, mcm, err := g.CriticalCycle()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(cycle) == 0 {
			t.Fatalf("trial %d: no cycle in a graph with a ring", trial)
		}
		var dur float64
		tokens := 0
		for i, a := range cycle {
			if a < cycle[0] {
				t.Fatalf("trial %d: cycle %v does not start at its smallest actor", trial, cycle)
			}
			// Of parallel edges, the one with the fewest tokens gives the
			// largest mean, which a critical cycle must use.
			next := cycle[(i+1)%len(cycle)]
			best := -1
			for _, eid := range g.OutEdges(a) {
				if e := g.Edge(eid); e.To == next && (best < 0 || e.Tokens < best) {
					best = e.Tokens
				}
			}
			if best < 0 {
				t.Fatalf("trial %d: no edge %d→%d on cycle %v", trial, a, next, cycle)
			}
			dur += g.Actor(a).Duration
			tokens += best
		}
		if mean := dur / float64(tokens); !almostEqual(mean, mcm, 1e-9) {
			t.Fatalf("trial %d: cycle %v has mean %v, MCM %v", trial, cycle, mean, mcm)
		}
	}
}

func TestCriticalCycleSimpleCases(t *testing.T) {
	// Two cycles through a; the one through c dominates.
	g := NewGraph()
	a := g.AddActor("a", 1)
	b := g.AddActor("b", 1)
	c := g.AddActor("c", 10)
	g.AddEdge("ab", a, b, 1)
	g.AddEdge("ba", b, a, 1)
	g.AddEdge("ca", c, a, 1)
	g.AddEdge("ac", a, c, 1)
	cycle, mcm, err := g.CriticalCycle()
	if err != nil {
		t.Fatal(err)
	}
	if len(cycle) != 2 || cycle[0] != a || cycle[1] != c || !almostEqual(mcm, 5.5, 1e-12) {
		t.Fatalf("critical cycle %v at %v, want [a c] at 5.5", cycle, mcm)
	}
	// Acyclic: no cycle, period 0.
	g2 := NewGraph()
	x := g2.AddActor("x", 5)
	y := g2.AddActor("y", 2)
	g2.AddEdge("xy", x, y, 0)
	if cycle, mcm, err := g2.CriticalCycle(); err != nil || cycle != nil || mcm != 0 {
		t.Fatalf("acyclic: cycle %v, mcm %v, err %v", cycle, mcm, err)
	}
}

// TestFeasibleExactBracketsMCM: the strict test accepts periods just above
// the MCM and rejects periods just below it.
func TestFeasibleExactBracketsMCM(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	for trial := 0; trial < 40; trial++ {
		g := randLiveGraph(rng, 2+rng.Intn(60))
		mcm, err := g.MinPeriod()
		if err != nil {
			t.Fatal(err)
		}
		if !g.FeasibleExact(mcm * (1 + 1e-9)) {
			t.Fatalf("trial %d: period just above MCM %v rejected", trial, mcm)
		}
		if g.FeasibleExact(mcm * (1 - 1e-9)) {
			t.Fatalf("trial %d: period just below MCM %v accepted", trial, mcm)
		}
	}
}

func TestHowardSimpleCases(t *testing.T) {
	g := NewGraph()
	a := g.AddActor("a", 6)
	g.AddEdge("aa", a, a, 2)
	got, err := g.MinPeriodHoward()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 3, 1e-9) {
		t.Fatalf("Howard self-loop = %v, want 3", got)
	}
	// Acyclic.
	g2 := NewGraph()
	x := g2.AddActor("x", 5)
	y := g2.AddActor("y", 2)
	g2.AddEdge("xy", x, y, 1)
	got2, err := g2.MinPeriodHoward()
	if err != nil {
		t.Fatal(err)
	}
	if got2 != 0 {
		t.Fatalf("Howard acyclic = %v, want 0", got2)
	}
}

// TestSelfTimedRateMatchesMCM: the steady-state self-timed rate equals the
// maximum cycle mean (fundamental SRDF theorem).
func TestSelfTimedRateMatchesMCM(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 25; trial++ {
		g := randLiveGraph(rng, 2+rng.Intn(6))
		mcm, err := g.MinPeriod()
		if err != nil {
			t.Fatal(err)
		}
		rate, err := g.SelfTimedRate(1000)
		if err != nil {
			t.Fatal(err)
		}
		// The estimate carries an O(1/k) transient bias.
		if !almostEqual(rate, mcm, 2e-2) {
			t.Fatalf("trial %d: self-timed rate %v vs MCM %v", trial, rate, mcm)
		}
	}
}

// TestSelfTimedMonotonicity: adding tokens can never delay any firing
// (temporal monotonicity, §II-B2 of the paper).
func TestSelfTimedMonotonicityTokens(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for trial := 0; trial < 30; trial++ {
		g := randLiveGraph(rng, 2+rng.Intn(5))
		base, err := g.SelfTimed(50)
		if err != nil {
			t.Fatal(err)
		}
		g2 := g.Clone()
		// Add a token to a random edge.
		eid := EdgeID(rng.Intn(g2.NumEdges()))
		g2.SetTokens(eid, g2.Edge(eid).Tokens+1)
		more, err := g2.SelfTimed(50)
		if err != nil {
			t.Fatal(err)
		}
		for a := range base {
			for j := range base[a] {
				if more[a][j] > base[a][j]+1e-9 {
					t.Fatalf("trial %d: adding tokens delayed firing (%d,%d): %v > %v",
						trial, a, j, more[a][j], base[a][j])
				}
			}
		}
	}
}

// TestSelfTimedMonotonicityDurations: reducing a firing duration can never
// delay any firing.
func TestSelfTimedMonotonicityDurations(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	for trial := 0; trial < 30; trial++ {
		g := randLiveGraph(rng, 2+rng.Intn(5))
		base, err := g.SelfTimed(50)
		if err != nil {
			t.Fatal(err)
		}
		g2 := g.Clone()
		aid := ActorID(rng.Intn(g2.NumActors()))
		g2.SetDuration(aid, g2.Actor(aid).Duration*0.5)
		faster, err := g2.SelfTimed(50)
		if err != nil {
			t.Fatal(err)
		}
		for a := range base {
			for j := range base[a] {
				if faster[a][j] > base[a][j]+1e-9 {
					t.Fatalf("trial %d: faster actor delayed firing (%d,%d)", trial, a, j)
				}
			}
		}
	}
}

// TestStartTimesGivePAS: for random graphs and periods above MCM, start
// times exist and satisfy Constraint (1); below MCM they must not exist.
func TestStartTimesGivePAS(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	for trial := 0; trial < 40; trial++ {
		g := randLiveGraph(rng, 2+rng.Intn(8))
		mcm, err := g.MinPeriod()
		if err != nil {
			t.Fatal(err)
		}
		if mcm == 0 {
			continue
		}
		above := mcm * 1.05
		s, err := g.StartTimes(above)
		if err != nil {
			t.Fatalf("trial %d: period above MCM rejected: %v", trial, err)
		}
		if err := g.CheckPAS(s, above); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		below := mcm * 0.95
		if g.FeasiblePeriod(below) {
			t.Fatalf("trial %d: period below MCM accepted", trial)
		}
	}
}

func TestLongestPaths(t *testing.T) {
	// a(2) → b(4) → c(1) chain plus a back edge c→a with 3 tokens.
	g := NewGraph()
	a := g.AddActor("a", 2)
	b := g.AddActor("b", 4)
	c := g.AddActor("c", 1)
	g.AddEdge("ab", a, b, 0)
	g.AddEdge("bc", b, c, 0)
	g.AddEdge("ca", c, a, 3)
	const period = 4.0 // MCM = (2+4+1)/3 = 7/3 < 4
	d, err := g.LongestPaths(a, period)
	if err != nil {
		t.Fatal(err)
	}
	if d[a] != 0 {
		t.Fatalf("d[a] = %v", d[a])
	}
	if !almostEqual(d[b], 2, 1e-9) { // ρ(a)
		t.Fatalf("d[b] = %v, want 2", d[b])
	}
	if !almostEqual(d[c], 6, 1e-9) { // ρ(a)+ρ(b)
		t.Fatalf("d[c] = %v, want 6", d[c])
	}
	// Minimality: d is itself a feasible schedule offset assignment.
	if err := g.CheckPAS(d, period); err != nil {
		t.Fatalf("longest paths not PAS-feasible: %v", err)
	}
	// Unreachable actor: isolated node gets -Inf.
	g2 := NewGraph()
	x := g2.AddActor("x", 1)
	y := g2.AddActor("y", 1) // no edges
	d2, err := g2.LongestPaths(x, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(d2[y], -1) {
		t.Fatalf("unreachable actor distance = %v, want -Inf", d2[y])
	}
	// Infeasible period is rejected.
	if _, err := g.LongestPaths(a, 1); err == nil {
		t.Fatal("period below MCM accepted")
	}
	if _, err := g.LongestPaths(a, 0); err == nil {
		t.Fatal("zero period accepted")
	}
}

func TestSelfTimedRateValidation(t *testing.T) {
	g := NewGraph()
	g.AddActor("a", 1)
	if _, err := g.SelfTimedRate(2); err == nil {
		t.Fatal("k < 4 accepted")
	}
}

func TestSelfTimedChainLatency(t *testing.T) {
	// a → b → c chain with no tokens: firing j of c starts at
	// j·0 offsets... with all tokens 0, every firing j of b starts after
	// firing j of a finishes.
	g := NewGraph()
	a := g.AddActor("a", 2)
	b := g.AddActor("b", 3)
	c := g.AddActor("c", 1)
	g.AddEdge("ab", a, b, 0)
	g.AddEdge("bc", b, c, 0)
	st, err := g.SelfTimed(3)
	if err != nil {
		t.Fatal(err)
	}
	// Without self-loops, a fires all its firings at t=0 (no constraints).
	if st[a][0] != 0 || st[a][2] != 0 {
		t.Fatalf("a start times: %v", st[a])
	}
	if st[b][0] != 2 || st[c][0] != 5 {
		t.Fatalf("pipeline latency wrong: b=%v c=%v", st[b][0], st[c][0])
	}
	_ = math.Pi
}
