package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/dfmodel"
	"repro/internal/lp"
	"repro/internal/socp"
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
// given policy, phase 2 computes minimal buffer capacities by linear
// programming (solved with the independent simplex in internal/lp).
func TwoPhaseBudgetFirst(ctx context.Context, c *taskgraph.Config, policy BudgetPolicy, opt Options) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return &Result{Status: StatusCanceled}, err
	}
	res := &Result{SolverStatus: socp.StatusOptimal}
	g := c.EffectiveGranularity()

	// ---- Phase 1: budgets without buffer knowledge ----
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
					res.Status = StatusInfeasible
					return res, nil
				}
			default:
				return nil, fmt.Errorf("core: unknown budget policy %v", policy)
			}
			if beta <= 0 || beta > p.Replenishment {
				res.Status = StatusInfeasible
				return res, nil
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
			res.Status = StatusInfeasible
			return res, nil
		}
	}

	// ---- Phase 2: buffer sizing LP with fixed budgets ----
	capacities, lpIter, feasible, err := bufferSizingLP(c, budgets)
	if err != nil {
		return nil, err
	}
	res.SolverIterations = lpIter
	if !feasible {
		res.Status = StatusInfeasible
		return res, nil
	}

	mapping := &taskgraph.Mapping{Budgets: budgets, Capacities: capacities}
	mapping.Objective = objective(c, mapping)
	res.Mapping = mapping
	res.Status = StatusOptimal
	if !opt.SkipVerification {
		v, err := dfmodel.VerifyValidated(c, mapping)
		if err != nil {
			return nil, err
		}
		res.Verification = v
		if !v.OK {
			res.Status = StatusError
			return res, fmt.Errorf("core: budget-first mapping failed verification: %v", v.Problems)
		}
	}
	return res, nil
}

// bufferSizingLP solves the phase-2 LP: minimal weighted buffer capacities
// for fixed budgets, subject to Constraints (6), (7), (10) and the
// per-buffer bounds. Returns the rounded capacities.
func bufferSizingLP(c *taskgraph.Config, budgets map[string]float64) (map[string]int, int, bool, error) {
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
			return nil, 0, false, err
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
			// The firing duration of the source actor at the fixed budget:
			// ϱ − β for a v1 actor, ϱ·χ/β for a v2 actor.
			f, v2 := lg.md.Firing(q.Src)
			w := &lg.tg.Tasks[f.Task]
			p, _ := c.Processor(w.Processor)
			dur := p.Replenishment - budgets[w.Name]
			if v2 {
				dur = p.Replenishment * w.WCET / budgets[w.Name]
			}
			if q.Src == q.Dst {
				// A self-loop's start times cancel: rate feasibility
				// ϱχ/β ≤ µ must hold or no PAS exists.
				if dur > float64(q.Tokens)*mu*(1+1e-12) {
					return nil, 0, false, nil
				}
				continue
			}
			// (6)/(7): s(src) − s(dst) [− µ·δ′] ≤ δ·µ − ρ(src).
			b := -dur
			if q.Tokens != 0 {
				b = float64(q.Tokens)*mu - dur
			}
			row := addRow(b)
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
			// Bounds.
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
		return nil, 0, false, err
	}
	if sol.Status != lp.StatusOptimal {
		return nil, sol.Iterations, false, nil
	}
	capacities := map[string]int{}
	for _, lg := range graphs {
		for i := range lg.tg.Buffers {
			bf := &lg.tg.Buffers[i]
			gamma := bf.InitialTokens + int(math.Ceil(sol.X[lg.d[i]]-roundTol))
			if gamma < 1 {
				gamma = 1
			}
			if bf.MinContainers > 0 && gamma < bf.MinContainers {
				gamma = bf.MinContainers
			}
			capacities[bf.Name] = gamma
		}
	}
	return capacities, sol.Iterations, true, nil
}

// TwoPhaseBufferFirst runs the reverse classical flow: phase 1 fixes every
// buffer capacity (from caps, or from each buffer's MaxContainers when caps
// is nil), phase 2 minimizes the weighted sum of budgets with the cone
// program restricted to fixed δ′.
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

	m, err := buildModel(c, capacities)
	if err != nil {
		return nil, err
	}
	prob, err := m.b.Build()
	if err != nil {
		return nil, err
	}
	sol, report, err := solveConic(ctx, prob, opt.Solver)
	res.Report = report
	if err != nil {
		res.Status = StatusError
		if sol != nil {
			res.SolverStatus = sol.Status
			res.SolverIterations = sol.Iterations
		}
		return res, err
	}
	res.SolverStatus = sol.Status
	res.SolverIterations = sol.Iterations
	switch sol.Status {
	case socp.StatusOptimal:
	case socp.StatusPrimalInfeasible:
		res.Status = StatusInfeasible
		return res, nil
	case socp.StatusCanceled:
		res.Status = StatusCanceled
		return res, nil
	default:
		res.Status = StatusError
		return res, nil
	}
	res.ContinuousObjective = sol.PrimalObj
	res.ContinuousBudgets = map[string]float64{}
	g := c.EffectiveGranularity()
	mapping := &taskgraph.Mapping{Budgets: map[string]float64{}, Capacities: capacities}
	for _, tg := range c.Graphs {
		for i := range tg.Tasks {
			w := &tg.Tasks[i]
			bp := sol.X[m.beta[w.Name]]
			res.ContinuousBudgets[w.Name] = bp
			mapping.Budgets[w.Name] = g * math.Ceil(bp/g-roundTol)
		}
	}
	mapping.Objective = objective(c, mapping)
	res.Mapping = mapping
	res.Status = StatusOptimal
	if !opt.SkipVerification {
		v, err := dfmodel.VerifyValidated(c, mapping)
		if err != nil {
			return nil, err
		}
		res.Verification = v
		if !v.OK {
			res.Status = StatusError
			return res, fmt.Errorf("core: buffer-first mapping failed verification: %v", v.Problems)
		}
	}
	return res, nil
}
