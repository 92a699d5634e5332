package dfmodel

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
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

// TestRepetitionsInconsistent: two buffers joining the same tasks at
// different rates have no positive solution; a buffer naming a task the
// graph does not have is an error too.
func TestRepetitionsInconsistent(t *testing.T) {
	c := mrConfig()
	// Add a second buffer with contradictory rates.
	c.Graphs[0].Buffers = append(c.Graphs[0].Buffers, taskgraph.Buffer{
		Name: "b2", From: "wa", To: "wb", Memory: "m1", Prod: 1, Cons: 1,
	})
	if _, err := Repetitions(c.Graphs[0]); err == nil {
		t.Fatal("inconsistent rates accepted")
	}
	g := rateGraph([]string{"a", "b"}, [4]int{0, 1, 1, 1})
	g.Buffers[0].To = "missing"
	if _, err := Repetitions(g); err == nil || !strings.Contains(err.Error(), "unknown endpoint") {
		t.Fatalf("err = %v, want an unknown endpoint", err)
	}
}

// TestInconsistentDetected: rates whose balance equations force a firing
// count to equal a multiple of itself are named a sample-rate
// inconsistency, for parallel buffers and for a longer cycle alike.
func TestInconsistentDetected(t *testing.T) {
	for _, tc := range []struct {
		name string
		tg   *taskgraph.TaskGraph
	}{
		// a→b at (1,1) and at (2,1): q(b) = q(a) and q(b) = 2q(a).
		{"parallel", rateGraph([]string{"a", "b"}, [4]int{0, 1, 1, 1}, [4]int{0, 1, 2, 1})},
		// a→b halves the firing count and b→c, c→a keep it: q(a) = q(a)/2.
		{"cycle", rateGraph([]string{"a", "b", "c"}, [4]int{0, 1, 1, 2}, [4]int{1, 2, 1, 1}, [4]int{2, 0, 1, 1})},
	} {
		if _, err := Repetitions(tc.tg); err == nil || !strings.Contains(err.Error(), "inconsistent") {
			t.Fatalf("%s: err = %v, want a sample-rate inconsistency", tc.name, err)
		}
	}
}

// rateGraph is a task graph with the given tasks and buffers, each buffer
// written as {from, to, prod, cons}; only the rates matter to Repetitions.
func rateGraph(tasks []string, bufs ...[4]int) *taskgraph.TaskGraph {
	tg := &taskgraph.TaskGraph{Name: "g"}
	for _, name := range tasks {
		tg.Tasks = append(tg.Tasks, taskgraph.Task{Name: name})
	}
	for i, b := range bufs {
		tg.Buffers = append(tg.Buffers, taskgraph.Buffer{
			Name: fmt.Sprintf("b%d", i), From: tasks[b[0]], To: tasks[b[1]], Prod: b[2], Cons: b[3],
		})
	}
	return tg
}

// checkRepetitions solves the balance equations of tg and compares the
// result with want, which names every task.
func checkRepetitions(t *testing.T, tg *taskgraph.TaskGraph, want map[string]int) {
	t.Helper()
	got, err := Repetitions(tg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("reps = %v, want %v", got, want)
	}
	for name, q := range want {
		if got[name] != q {
			t.Fatalf("reps = %v, want %v", got, want)
		}
	}
}

// TestRepetitionVectorClassic: in a --(2,3)--> b, 3 firings of a fill what
// 2 of b drain.
func TestRepetitionVectorClassic(t *testing.T) {
	checkRepetitions(t, rateGraph([]string{"a", "b"}, [4]int{0, 1, 2, 3}),
		map[string]int{"a": 3, "b": 2})
}

// TestRepetitionVectorChain: in a --(1,2)--> b --(3,1)--> c,
// q(b) = q(a)/2 and q(c) = 3q(b).
func TestRepetitionVectorChain(t *testing.T) {
	checkRepetitions(t, rateGraph([]string{"a", "b", "c"}, [4]int{0, 1, 1, 2}, [4]int{1, 2, 3, 1}),
		map[string]int{"a": 2, "b": 1, "c": 3})
}

// TestRepetitionVectorComponents: each weakly connected component is
// scaled to its own smallest vector; a--(2,4)-->b, the self-loop on c and
// the lone task d are three components.
func TestRepetitionVectorComponents(t *testing.T) {
	checkRepetitions(t, rateGraph([]string{"a", "b", "c", "d"}, [4]int{0, 1, 2, 4}, [4]int{2, 2, 1, 1}),
		map[string]int{"a": 2, "b": 1, "c": 1, "d": 1})
}

// TestRepetitionsNonPositiveRates: a rate of 0 or below is the single-rate
// default of 1.
func TestRepetitionsNonPositiveRates(t *testing.T) {
	checkRepetitions(t, rateGraph([]string{"a", "b", "c"}, [4]int{0, 1, 0, -1}, [4]int{1, 2, -3, 2}),
		map[string]int{"a": 2, "b": 2, "c": 1})
}

// FuzzRepetitions checks Repetitions on graphs of up to 8 tasks. Each input
// byte after the first gives a buffer whose endpoints come from the byte
// and whose rates keep the random firing counts q balanced; a nonzero low
// bit instead draws the rates at random. Whatever Repetitions returns
// without error must satisfy every balance equation with counts of gcd 1
// per component. A graph built balanced must succeed, and one more buffer
// that contradicts q between two tasks of one component must fail.
func FuzzRepetitions(f *testing.F) {
	f.Add([]byte{3, 0x10, 0x24, 0x51})
	f.Add([]byte{8, 0x00, 0xff, 0x3a, 0x3b, 0x77})
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 64 {
			return
		}
		n := 1 + int(data[0])%8
		names := make([]string, n)
		q := make([]int, n) // the firing counts balanced buffers follow
		for i := range names {
			names[i] = fmt.Sprintf("t%d", i)
			q[i] = 1 + (int(data[0])>>3+7*i)%5
		}
		var bufs [][4]int
		balanced := true
		for k, d := range data[1:] {
			from, to := int(d>>1)%n, int(d>>4)%n
			p, c := q[to], q[from]
			if d&1 == 1 {
				balanced = false
				p, c = 1+int(d>>2)%4, 1+(int(d)+k)%3
			}
			bufs = append(bufs, [4]int{from, to, p, c})
		}
		tg := rateGraph(names, bufs...)
		reps, err := Repetitions(tg)
		if err != nil {
			if balanced {
				t.Fatalf("balanced graph rejected: %v", err)
			}
			return
		}
		for _, b := range tg.Buffers {
			if reps[b.From]*b.EffectiveProd() != reps[b.To]*b.EffectiveCons() {
				t.Fatalf("buffer %s: q(%s)=%d · %d ≠ q(%s)=%d · %d",
					b.Name, b.From, reps[b.From], b.EffectiveProd(), b.To, reps[b.To], b.EffectiveCons())
			}
		}
		comp := make([]int, n) // union-find over the buffers
		for i := range comp {
			comp[i] = i
		}
		var find func(int) int
		find = func(i int) int {
			if comp[i] != i {
				comp[i] = find(comp[i])
			}
			return comp[i]
		}
		for _, b := range bufs {
			comp[find(b[0])] = find(b[1])
		}
		gcd := map[int]int{}
		for i, name := range names {
			if reps[name] < 1 {
				t.Fatalf("q(%s) = %d", name, reps[name])
			}
			r := find(i)
			g, v := gcd[r], reps[name]
			for v != 0 {
				g, v = v, g%v
			}
			gcd[r] = g
		}
		for r, g := range gcd {
			if g != 1 {
				t.Fatalf("component of %s has gcd %d: %v", names[r], g, reps)
			}
		}
		// Close an inconsistent cycle: a buffer u→v with q(u)·p ≠ q(v)·c.
		u, v := 0, 0
		if len(bufs) > 0 {
			u, v = bufs[0][0], bufs[0][1]
		}
		tg.Buffers = append(tg.Buffers, taskgraph.Buffer{
			Name: "contra", From: names[u], To: names[v], Prod: reps[names[v]], Cons: reps[names[u]] + 1,
		})
		if _, err := Repetitions(tg); err == nil {
			t.Fatalf("inconsistent buffer %s→%s (%d, %d) accepted with q = %v",
				names[u], names[v], reps[names[v]], reps[names[u]]+1, reps)
		}
	})
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

// TestClosedFormMatchesExpansion: NewModel gives a single-rate buffer the
// two-queue closed form, and that form must be exactly what ExpandBuffer
// gives a unit-rate buffer with one firing per task: a data queue a2→b1
// with ι tokens and a space queue b2→a1 with γ−ι tokens.
func TestClosedFormMatchesExpansion(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  *taskgraph.Config
	}{
		{"T1", gen.PaperT1(0)},
		{"T2", gen.PaperT2(0)},
		{"chain20", gen.Chain(gen.ChainOptions{Tasks: 20})},
		{"ring5", gen.Ring(5, 3)},
		{"dag40", gen.RandomDAG(gen.DAGOptions{Seed: 3, Tasks: 40})},
		{"jobs1", gen.RandomJobs(gen.RandomOptions{Seed: 1, Jobs: 3, MinTasks: 2, MaxTasks: 6, Processors: 3})},
		{"jobs7", gen.RandomJobs(gen.RandomOptions{Seed: 7, Jobs: 5, MinTasks: 2, MaxTasks: 9, Processors: 4})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, tg := range tc.cfg.Graphs {
				for extra := 0; extra < 3; extra++ {
					caps := map[string]int{}
					for i := range tg.Buffers {
						b := &tg.Buffers[i]
						caps[b.Name] = max(1, b.InitialTokens) + extra + i%2
					}
					md, err := NewModel(tg, caps)
					if err != nil {
						t.Fatal(err)
					}
					if md.Repetitions != nil {
						t.Fatalf("graph %s: single-rate graph expanded", tg.Name)
					}
					task := map[string]int{}
					for i := range tg.Tasks {
						task[tg.Tasks[i].Name] = i
					}
					got := map[int][]Queue{}
					for _, q := range md.Queues {
						if q.Buffer >= 0 {
							got[q.Buffer] = append(got[q.Buffer], q)
						}
					}
					for i := range tg.Buffers {
						b := &tg.Buffers[i]
						deps, err := ExpandBuffer(b, 1, 1, caps[b.Name])
						if err != nil {
							t.Fatal(err)
						}
						from, to := task[b.From], task[b.To]
						var want []Queue
						for _, d := range deps {
							q := Queue{Src: V2(from + d.SrcCopy), Dst: V1(to + d.DstCopy), Tokens: d.Delta, Buffer: i}
							if d.Space {
								q = Queue{Src: V2(to + d.SrcCopy), Dst: V1(from + d.DstCopy), Tokens: d.Delta, Buffer: i, Space: true}
							}
							want = append(want, q)
						}
						if !slices.Equal(got[i], want) {
							t.Fatalf("buffer %s at γ=%d: closed form %+v, expansion %+v", b.Name, caps[b.Name], got[i], want)
						}
						if want[0].Tokens != b.InitialTokens || want[1].Tokens != caps[b.Name]-b.InitialTokens {
							t.Fatalf("buffer %s: tokens %d/%d, want ι=%d and γ−ι=%d", b.Name,
								want[0].Tokens, want[1].Tokens, b.InitialTokens, caps[b.Name]-b.InitialTokens)
						}
					}
				}
			}
		})
	}
}
