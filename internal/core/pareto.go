package core

import (
	"context"
	"math"
	"sort"

	"repro/internal/socp"
	"repro/internal/taskgraph"
)

// ParetoPoint is one nondominated operating point of the budget/memory
// trade-off space.
type ParetoPoint struct {
	// BudgetTotal is the summed budget over all tasks (Mcycles).
	BudgetTotal float64
	// MemoryTotal is the summed buffer footprint Σ γ(b)·ζ(b) (memory units).
	MemoryTotal int
	// WeightRatio is the budget:buffer weight ratio that produced the point.
	WeightRatio float64
	// Result is the full solve at that ratio.
	Result *Result
}

// ParetoFrontier explores the trade-off the paper's weighted objective spans
// (§IV: "the weights can be freely chosen"): it sweeps the relative
// budget-versus-buffer weight over `steps` logarithmically spaced ratios
// between 1e-3 and 1e3, solves each, and returns the nondominated points
// ordered by increasing budget total. Per-task and per-buffer weight
// preferences from the configuration are preserved as relative factors.
//
// Canceling the context stops the sweep promptly; the frontier of the
// points that did complete is still returned alongside the aggregated
// error, so a deadline-bounded exploration keeps what it paid for.
func ParetoFrontier(ctx context.Context, c *taskgraph.Config, steps int, opt Options) ([]ParetoPoint, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if steps < 2 {
		steps = 2
	}
	// Normalize the configuration's weight families to mean 1 so the swept
	// ratio is the effective budget:buffer preference regardless of the
	// absolute weights baked into the configuration.
	var budgetMean, bufferMean float64
	var nt, nb int
	for _, tg := range c.Graphs {
		for j := range tg.Tasks {
			budgetMean += tg.Tasks[j].EffectiveBudgetWeight()
			nt++
		}
		for j := range tg.Buffers {
			bufferMean += tg.Buffers[j].EffectiveSizeWeight()
			nb++
		}
	}
	budgetMean /= math.Max(1, float64(nt))
	bufferMean /= math.Max(1, float64(nb))
	if bufferMean == 0 {
		bufferMean = 1
	}

	// The per-ratio solves run on the bounded worker pool, warm-started in
	// chunks (neighboring ratios differ only in the objective, so the
	// previous ratio's interior point is an excellent seed) and sharing one
	// pattern cache. Ordering stays deterministic because the chunked runner
	// returns results in input order and the non-optimal filter below
	// preserves it.
	sweepCache(&opt)
	solved, sweepErr := runWarmChunks(ctx, steps, opt, func(ctx context.Context, i int, warm *socp.WarmStart) (ParetoPoint, *socp.WarmStart, error) {
		// ratio from 1e-3 to 1e+3 in log space.
		exp := -3 + 6*float64(i)/float64(steps-1)
		ratio := math.Pow(10, exp)
		cc := c.Clone()
		for _, tg := range cc.Graphs {
			for j := range tg.Tasks {
				tg.Tasks[j].BudgetWeight = tg.Tasks[j].EffectiveBudgetWeight() / budgetMean * ratio
			}
			for j := range tg.Buffers {
				tg.Buffers[j].SizeWeight = tg.Buffers[j].EffectiveSizeWeight() / bufferMean
			}
		}
		r, w, err := buildSolve(ctx, cc, opt, warm)
		if err != nil {
			return ParetoPoint{}, nil, err
		}
		pt := ParetoPoint{WeightRatio: ratio, Result: r}
		if r.Status != StatusOptimal {
			return pt, w, nil // filtered below; infeasible stays infeasible at every ratio
		}
		// Sum in declaration order, not map order: float addition is not
		// associative in the bits, so map iteration would make the totals
		// run-dependent.
		for _, tg := range cc.Graphs {
			for j := range tg.Tasks {
				pt.BudgetTotal += r.Mapping.Budgets[tg.Tasks[j].Name]
			}
			for j := range tg.Buffers {
				bf := &tg.Buffers[j]
				pt.MemoryTotal += r.Mapping.Capacities[bf.Name] * bf.EffectiveContainerSize()
			}
		}
		return pt, w, nil
	})
	// Surface the frontier of whatever completed even when the sweep was
	// cut short; skipped points have a nil Result.
	var points []ParetoPoint
	for _, pt := range solved {
		if pt.Result != nil && pt.Result.Status == StatusOptimal {
			points = append(points, pt)
		}
	}
	return nondominated(points), sweepErr
}

// nondominated filters to the Pareto-optimal points and sorts by budget.
func nondominated(points []ParetoPoint) []ParetoPoint {
	var out []ParetoPoint
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i == j {
				continue
			}
			if q.BudgetTotal <= p.BudgetTotal+1e-9 && q.MemoryTotal <= p.MemoryTotal &&
				(q.BudgetTotal < p.BudgetTotal-1e-9 || q.MemoryTotal < p.MemoryTotal) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].BudgetTotal != out[b].BudgetTotal {
			return out[a].BudgetTotal < out[b].BudgetTotal
		}
		return out[a].MemoryTotal < out[b].MemoryTotal
	})
	// Collapse duplicates (same budget and memory).
	dedup := out[:0]
	for i, p := range out {
		if i > 0 && math.Abs(p.BudgetTotal-dedup[len(dedup)-1].BudgetTotal) < 1e-9 &&
			p.MemoryTotal == dedup[len(dedup)-1].MemoryTotal {
			continue
		}
		dedup = append(dedup, p)
	}
	return dedup
}
