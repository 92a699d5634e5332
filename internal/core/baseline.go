package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/taskgraph"
)

// The two-phase baselines implement the state of the art the paper improves
// on: budget and buffer sizes computed in two separate phases of the mapping
// flow (cf. Moreira et al. EMSOFT'07, Stuijk et al. DAC'07). Because the
// phases cannot see each other's trade-off, they produce false negatives —
// configurations declared infeasible even though the joint Algorithm 1 finds
// a mapping — or waste resources. These baselines exist to reproduce and
// quantify that motivation.

// BudgetPolicy selects how the budget-first baseline fixes budgets before it
// has seen any buffer information.
type BudgetPolicy int

const (
	// BudgetMinimalRate gives every task the smallest budget that sustains
	// its rate in isolation: β = ϱ·χ/µ (rounded up to the granularity).
	// Cheapest in processor budget, but demands the largest buffers.
	BudgetMinimalRate BudgetPolicy = iota
	// BudgetFairShare divides each processor's capacity evenly over its
	// tasks: β = (ϱ − o)/n − g. Wastes processor capacity but needs small
	// buffers.
	BudgetFairShare
)

// String implements fmt.Stringer.
func (p BudgetPolicy) String() string {
	switch p {
	case BudgetMinimalRate:
		return "minimal-rate"
	case BudgetFairShare:
		return "fair-share"
	default:
		return fmt.Sprintf("BudgetPolicy(%d)", int(p))
	}
}

// TwoPhaseBudgetFirst runs the classical flow: phase 1 fixes budgets by the
// given policy, phase 2 computes minimal buffer capacities with Algorithm 1
// restricted to the fixed budgets — a linear program, solved by the same
// interior-point method as the joint solve. A phase-1 rejection returns
// StatusInfeasible with a nil Report, since no solver ran.
func TwoPhaseBudgetFirst(ctx context.Context, c *taskgraph.Config, policy BudgetPolicy, opt Options) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.MultiRate() {
		// Phase 2 sizes buffers by the δ′ of Algorithm 1, which exists for
		// single-rate buffers only.
		return nil, fmt.Errorf("core: budget-first baseline: configuration has multi-rate buffers, whose capacities it cannot size")
	}
	if err := ctx.Err(); err != nil {
		return &Result{Status: StatusCanceled}, err
	}
	budgets, err := budgetFirstBudgets(c, policy)
	if err != nil {
		return nil, err
	}
	if budgets == nil {
		return &Result{Status: StatusInfeasible}, nil
	}
	return solveFixed(ctx, c, nil, budgets, opt)
}

// budgetFirstBudgets is the budget-first phase 1: it fixes every budget by
// policy, without buffer knowledge, and returns nil when the budgets
// cannot sustain their tasks' rates or overload a processor.
func budgetFirstBudgets(c *taskgraph.Config, policy BudgetPolicy) (map[string]float64, error) {
	g := c.EffectiveGranularity()
	budgets := map[string]float64{}
	for _, tg := range c.Graphs {
		for i := range tg.Tasks {
			w := &tg.Tasks[i]
			p, _ := c.Processor(w.Processor)
			rateMin := p.Replenishment * w.WCET / tg.Period
			var beta float64
			switch policy {
			case BudgetMinimalRate:
				beta = g * math.Ceil(rateMin/g-roundTol)
			case BudgetFairShare:
				n := float64(len(c.TasksOn(w.Processor)))
				beta = g * math.Floor(((p.Replenishment-p.Overhead)/n)/g+roundTol)
				if beta < rateMin {
					return nil, nil
				}
			default:
				return nil, fmt.Errorf("core: unknown budget policy %v", policy)
			}
			// The last test is the task's self-loop, ϱχ/β ≤ µ: with β fixed
			// the phase-2 program has no variable in that row.
			if beta <= 0 || beta > p.Replenishment || p.Replenishment*w.WCET/beta > tg.Period*(1+1e-12) {
				return nil, nil
			}
			budgets[w.Name] = beta
		}
	}
	// Processor capacity check (Constraint 4 with overhead).
	for i := range c.Processors {
		p := &c.Processors[i]
		load := p.Overhead
		for _, tn := range c.TasksOn(p.Name) {
			load += budgets[tn]
		}
		if load > p.Replenishment*(1+1e-12) {
			return nil, nil
		}
	}
	return budgets, nil
}

// TwoPhaseBufferFirst runs the reverse classical flow: phase 1 fixes every
// buffer capacity (from caps, or from each buffer's MaxContainers when caps
// is nil), phase 2 minimizes the weighted sum of budgets with Algorithm 1
// restricted to the fixed capacities.
func TwoPhaseBufferFirst(ctx context.Context, c *taskgraph.Config, caps map[string]int, opt Options) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	res := &Result{}
	capacities := map[string]int{}
	for _, tg := range c.Graphs {
		for i := range tg.Buffers {
			bf := &tg.Buffers[i]
			gamma := 0
			if caps != nil {
				gamma = caps[bf.Name]
			} else {
				gamma = bf.MaxContainers
			}
			if gamma <= 0 {
				return nil, fmt.Errorf("core: buffer-first baseline needs a capacity for buffer %q", bf.Name)
			}
			if gamma < bf.InitialTokens || (bf.MaxContainers > 0 && gamma > bf.MaxContainers) ||
				(bf.MinContainers > 0 && gamma < bf.MinContainers) {
				res.Status = StatusInfeasible
				return res, nil
			}
			capacities[bf.Name] = gamma
		}
	}
	// Memory capacity precheck with the fixed capacities.
	for i := range c.Memories {
		mem := &c.Memories[i]
		use := 0
		for _, tg := range c.Graphs {
			for j := range tg.Buffers {
				bf := &tg.Buffers[j]
				if bf.Memory == mem.Name {
					use += capacities[bf.Name] * bf.EffectiveContainerSize()
				}
			}
		}
		if use > mem.Capacity {
			res.Status = StatusInfeasible
			return res, nil
		}
	}

	return solveFixed(ctx, c, capacities, nil, opt)
}

// solveFixed solves Algorithm 1 with the capacities or budgets a baseline's
// phase 1 fixed, and rounds and verifies what it relaxed exactly like the
// joint solve.
func solveFixed(ctx context.Context, c *taskgraph.Config, caps map[string]int, budgets map[string]float64, opt Options) (*Result, error) {
	m, err := buildModel(c, caps, budgets)
	if err != nil {
		return nil, err
	}
	prob, err := m.b.Build()
	if err != nil {
		return nil, err
	}
	// A baseline solves once, so it chains no warm start.
	opt.NoWarmStart = true
	res, _, err := solveWarm(ctx, c, m, prob, opt, nil)
	return res, err
}
