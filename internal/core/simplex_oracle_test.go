package core

import (
	"context"
	"fmt"
	"maps"
	"math"
	"testing"

	"repro/internal/dfmodel"
	"repro/internal/lp"
	"repro/internal/taskgraph"
)

// simplexBufferSizing is an oracle for the budget-first phase 2: the
// minimal weighted buffer capacities for fixed budgets, subject to
// Constraints (6), (7), (10) and the per-buffer bounds, written as LP rows
// independently of addConstraints and solved by the dense simplex in
// internal/lp. It returns the capacities rounded as solveWarm rounds them,
// and false when the LP is infeasible. Like the production flow it leaves
// the self-loop rows to phase 1; unlike it, it has no latency rows, which
// the census configurations do not need.
func simplexBufferSizing(t *testing.T, c *taskgraph.Config, budgets map[string]float64) (map[string]int, bool) {
	t.Helper()
	// Variable layout: start times per actor (free), then δ′ per buffer,
	// graph by graph.
	type lpGraph struct {
		tg *taskgraph.TaskGraph
		md *dfmodel.Model
		sv []int // start-time variable per actor, −1 when pinned
		d  []int // δ′ variable per buffer
	}
	var free []bool
	var obj []float64
	addVar := func(isFree bool, cost float64) int {
		free = append(free, isFree)
		obj = append(obj, cost)
		return len(free) - 1
	}
	graphs := make([]lpGraph, 0, len(c.Graphs))
	for _, tg := range c.Graphs {
		md, err := dfmodel.NewModel(tg, nil)
		if err != nil {
			t.Fatal(err)
		}
		lg := lpGraph{tg: tg, md: md, sv: make([]int, 2*len(md.Firings)), d: make([]int, len(tg.Buffers))}
		for k, f := range md.Firings {
			lg.sv[dfmodel.V1(k)] = -1
			if !f.Pinned {
				lg.sv[dfmodel.V1(k)] = addVar(true, 0)
			}
			lg.sv[dfmodel.V2(k)] = addVar(true, 0)
		}
		for i := range tg.Buffers {
			bf := &tg.Buffers[i]
			lg.d[i] = addVar(false, bf.EffectiveSizeWeight()*float64(bf.EffectiveContainerSize()))
		}
		graphs = append(graphs, lg)
	}

	var rows [][]float64
	var rhs []float64
	n := len(free)
	addRow := func(b float64) []float64 {
		row := make([]float64, n)
		rows = append(rows, row)
		rhs = append(rhs, b)
		return row
	}
	for _, lg := range graphs {
		mu := lg.tg.Period
		for _, q := range lg.md.Queues {
			if q.Src == q.Dst {
				continue
			}
			// The firing duration of the source actor at the fixed budget:
			// ϱ − β for a v1 actor, ϱ·χ/β for a v2 actor.
			f, v2 := lg.md.Firing(q.Src)
			w := &lg.tg.Tasks[f.Task]
			p, _ := c.Processor(w.Processor)
			dur := p.Replenishment - budgets[w.Name]
			if v2 {
				dur = p.Replenishment * w.WCET / budgets[w.Name]
			}
			// (6)/(7): s(src) − s(dst) [− µ·δ′] ≤ δ·µ − ρ(src).
			row := addRow(float64(q.Tokens)*mu - dur)
			if i := lg.sv[q.Src]; i >= 0 {
				row[i] += 1
			}
			if i := lg.sv[q.Dst]; i >= 0 {
				row[i] -= 1
			}
			if !q.Space {
				continue
			}
			bf := &lg.tg.Buffers[q.Buffer]
			id := lg.d[q.Buffer]
			row[id] -= mu
			if bf.MaxContainers > 0 {
				addRow(float64(bf.MaxContainers - bf.InitialTokens))[id] = 1
			}
			if lo := bf.MinContainers - bf.InitialTokens; lo > 0 {
				addRow(-float64(lo))[id] = -1
			}
		}
	}
	// (10): Σ (ι + δ′ + 1)·ζ ≤ ς per memory.
	for i := range c.Memories {
		mem := &c.Memories[i]
		row := make([]float64, n)
		base := 0.0
		nb := 0
		for _, lg := range graphs {
			for j := range lg.tg.Buffers {
				bf := &lg.tg.Buffers[j]
				if bf.Memory != mem.Name {
					continue
				}
				z := float64(bf.EffectiveContainerSize())
				row[lg.d[j]] += z
				base += z * float64(bf.InitialTokens+1)
				nb++
			}
		}
		if nb > 0 {
			rows = append(rows, row)
			rhs = append(rhs, float64(mem.Capacity)-base)
		}
	}

	sol, err := lp.Solve(&lp.Problem{C: obj, A: rows, B: rhs, Free: free})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.StatusOptimal {
		return nil, false
	}
	capacities := map[string]int{}
	for _, lg := range graphs {
		for i := range lg.tg.Buffers {
			bf := &lg.tg.Buffers[i]
			gamma := max(bf.InitialTokens+int(math.Ceil(sol.X[lg.d[i]]-roundTol)), 1, bf.MinContainers)
			capacities[bf.Name] = gamma
		}
	}
	return capacities, true
}

// TestBudgetFirstMatchesSimplex pins the budget-first phase 2 on the
// interior-point method against the simplex oracle: over census
// configurations, uncapped and with every buffer capped at 1 + seed%12,
// under both budget policies, every phase-2 program gets the same status
// and the same rounded capacities from both engines.
func TestBudgetFirstMatchesSimplex(t *testing.T) {
	ctx := context.Background()
	lps, optimal := 0, 0
	for seed := int64(0); seed < 100; seed++ {
		for _, capped := range []bool{false, true} {
			c := censusJobs(seed)
			if capped {
				for _, tg := range c.Graphs {
					for i := range tg.Buffers {
						tg.Buffers[i].MaxContainers = int(1 + seed%12)
					}
				}
			}
			for _, pol := range []BudgetPolicy{BudgetMinimalRate, BudgetFairShare} {
				name := fmt.Sprintf("seed %d capped %v %v", seed, capped, pol)
				res, err := TwoPhaseBudgetFirst(ctx, c, pol, Options{})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				budgets, err := budgetFirstBudgets(c, pol)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if budgets == nil {
					if res.Status != StatusInfeasible || res.Report != nil {
						t.Fatalf("%s: phase 1 rejects, but the flow gives %v (report %v)", name, res.Status, res.Report)
					}
					continue
				}
				lps++
				want, feasible := simplexBufferSizing(t, c, budgets)
				switch {
				case !feasible:
					if res.Status != StatusInfeasible {
						t.Fatalf("%s: simplex infeasible, interior point %v", name, res.Status)
					}
				case res.Status != StatusOptimal:
					t.Fatalf("%s: simplex optimal, interior point %v", name, res.Status)
				case !maps.Equal(res.Mapping.Capacities, want):
					t.Fatalf("%s: capacities %v, simplex %v", name, res.Mapping.Capacities, want)
				default:
					optimal++
				}
			}
		}
	}
	// Both outcomes must be covered for the agreement to mean anything.
	if optimal == 0 || optimal == lps {
		t.Fatalf("%d of %d phase-2 programs optimal, want both outcomes", optimal, lps)
	}
	t.Logf("%d phase-2 programs, %d optimal", lps, optimal)
}
