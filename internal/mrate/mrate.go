// Package mrate extends the paper's mapping flow to multi-rate (SDF) task
// graphs — the "more dynamic applications" the paper names as its essential
// next step.
//
// The obstacle to a direct extension is that in a multi-rate graph the
// token distances of the expanded dataflow model are floor functions of the
// buffer capacity γ, not affine in it as in the single-rate Constraint (7).
// The hybrid solver used here therefore splits the problem:
//
//   - for FIXED buffer capacities, budgets remain a convex problem: the
//     HSDF expansion of the graph (internal/dfmodel.ExpandBuffer) yields
//     affine PAS constraints in the budget variables β′, λ, and the same
//     second-order cone program as Algorithm 1 computes optimal budgets;
//   - buffer capacities are searched by greedy descent from their upper
//     bounds, exploiting that feasibility is monotone in γ (more containers
//     never hurt, by SRDF temporal monotonicity).
//
// For single-rate graphs the expansion degenerates to the paper's two-actor
// model and the result matches internal/core (see the cross-check tests).
package mrate

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dfmodel"
	"repro/internal/socp"
	"repro/internal/taskgraph"
)

// Options configures the hybrid solve.
type Options struct {
	// Solver configures the interior-point method.
	Solver socp.Options
	// MaxDescentSteps bounds the greedy capacity-descent iterations
	// (default: the total slack between upper and lower capacity bounds).
	MaxDescentSteps int
	// SkipVerification disables the final SRDF verification.
	SkipVerification bool
}

// Result is the outcome of a multi-rate solve.
type Result struct {
	Status  core.Status
	Mapping *taskgraph.Mapping
	// ContinuousBudgets are the relaxed budget values of the final solve.
	ContinuousBudgets map[string]float64
	// Evaluated counts the cone programs solved during the search.
	Evaluated int
	// Verification is the independent SRDF check of the result.
	Verification *dfmodel.Verification
}

// Solve computes budgets and buffer capacities for a (multi-rate)
// configuration. Buffer capacity upper bounds come from MaxContainers when
// set; otherwise a sound saturation bound is derived per graph: no cycle of
// the expanded model can be longer than the summed worst-case durations of
// every firing copy at rate-minimal budgets, so ⌈that sum/µ⌉ tokens already
// relax every PAS constraint a buffer can appear in, and more containers
// cannot help.
func Solve(ctx context.Context, c *taskgraph.Config, opt Options) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	res := &Result{}

	// Capacity bounds per buffer.
	upper := map[string]int{}
	lower := map[string]int{}
	slack := 0
	for _, tg := range c.Graphs {
		reps, err := dfmodel.Repetitions(tg)
		if err != nil {
			return nil, err
		}
		// Saturation bound: total duration of one iteration's firings at
		// rate-minimal budgets, over the period.
		var total float64
		for i := range tg.Tasks {
			w := &tg.Tasks[i]
			p, _ := c.Processor(w.Processor)
			q := float64(reps[w.Name])
			bmin := math.Min(p.Replenishment, q*p.Replenishment*w.WCET/tg.Period)
			total += q * ((p.Replenishment - bmin) + p.Replenishment*w.WCET/bmin)
		}
		saturation := int(math.Ceil(total/tg.Period)) + 1
		for i := range tg.Buffers {
			b := &tg.Buffers[i]
			up := b.MaxContainers
			if up == 0 {
				up = b.InitialTokens + saturation
			}
			lo := 1
			if b.InitialTokens > lo {
				lo = b.InitialTokens
			}
			if b.MinContainers > lo {
				lo = b.MinContainers
			}
			if up < lo {
				res.Status = core.StatusInfeasible
				return res, nil
			}
			upper[b.Name] = up
			lower[b.Name] = lo
			slack += up - lo
		}
	}
	if opt.MaxDescentSteps == 0 {
		opt.MaxDescentSteps = slack + 1
	}

	caps := map[string]int{}
	for k, v := range upper {
		caps[k] = v
	}
	cur, err := solveBudgets(ctx, c, caps, opt.Solver)
	if err != nil {
		return nil, err
	}
	res.Evaluated++
	if cur.status != core.StatusOptimal {
		res.Status = cur.status
		return res, nil
	}

	// Greedy descent on capacities: accept the single decrement with the
	// best total-cost improvement each round.
	for step := 0; step < opt.MaxDescentSteps; step++ {
		type cand struct {
			buf   string
			sol   *budgetSolution
			total float64
		}
		var best *cand
		for _, tg := range c.Graphs {
			for i := range tg.Buffers {
				b := &tg.Buffers[i]
				if caps[b.Name] <= lower[b.Name] {
					continue
				}
				caps[b.Name]--
				sol, err := solveBudgets(ctx, c, caps, opt.Solver)
				res.Evaluated++
				caps[b.Name]++
				if err != nil {
					return nil, err
				}
				if sol.status == core.StatusCanceled {
					// Don't keep probing decrements against a dead context;
					// surface the cancellation (the caller loses only the
					// not-yet-accepted descent step).
					res.Status = core.StatusCanceled
					return res, nil
				}
				if sol.status != core.StatusOptimal {
					continue
				}
				if best == nil || sol.total < best.total {
					best = &cand{buf: b.Name, sol: sol, total: sol.total}
				}
			}
		}
		if best == nil || best.total >= cur.total-1e-9 {
			break
		}
		caps[best.buf]--
		cur = best.sol
	}

	mapping := &taskgraph.Mapping{
		Budgets:    cur.budgets,
		Capacities: caps,
	}
	mapping.Objective = cur.total
	res.Mapping = mapping
	res.ContinuousBudgets = cur.continuous
	res.Status = core.StatusOptimal
	if !opt.SkipVerification {
		v, err := dfmodel.Verify(c, mapping)
		if err != nil {
			return nil, err
		}
		res.Verification = v
		if !v.OK {
			res.Status = core.StatusError
			return res, fmt.Errorf("mrate: mapping failed verification: %v", v.Problems)
		}
	}
	return res, nil
}

// budgetSolution is the outcome of one budget-only solve at fixed caps.
type budgetSolution struct {
	status     core.Status
	budgets    map[string]float64
	continuous map[string]float64
	total      float64 // weighted objective incl. the (constant) buffer cost
}

// solveBudgets solves the budget-only cone program over the expanded model
// for fixed buffer capacities.
func solveBudgets(ctx context.Context, c *taskgraph.Config, caps map[string]int, sopt socp.Options) (*budgetSolution, error) {
	// Memory capacity precheck (constant with fixed caps).
	for i := range c.Memories {
		mem := &c.Memories[i]
		use := 0
		for _, tg := range c.Graphs {
			for j := range tg.Buffers {
				b := &tg.Buffers[j]
				if b.Memory == mem.Name {
					use += caps[b.Name] * b.EffectiveContainerSize()
				}
			}
		}
		if use > mem.Capacity {
			return &budgetSolution{status: core.StatusInfeasible}, nil
		}
	}

	bld := socp.NewBuilder()
	type copyKey struct {
		task  string
		copy  int
		which int
	}
	sv := map[copyKey]int{} // -1 = pinned
	beta := map[string]int{}
	lam := map[string]int{}
	g := c.EffectiveGranularity()

	for _, tg := range c.Graphs {
		reps, err := dfmodel.Repetitions(tg)
		if err != nil {
			return nil, err
		}
		pinned := pinnedTasks(tg)
		for i := range tg.Tasks {
			w := &tg.Tasks[i]
			for j := 0; j < reps[w.Name]; j++ {
				for _, which := range []int{1, 2} {
					k := copyKey{w.Name, j, which}
					if which == 1 && j == 0 && pinned[w.Name] {
						sv[k] = -1
						continue
					}
					sv[k] = bld.AddVar()
				}
			}
			beta[w.Name] = bld.AddVar()
			lam[w.Name] = bld.AddVar()
			bld.SetObjective(beta[w.Name], w.EffectiveBudgetWeight())
			bld.AddProductGE(lam[w.Name], beta[w.Name], 1)
		}
		sExpr := func(k copyKey) socp.Affine {
			v := sv[k]
			if v < 0 {
				return socp.Expr(0)
			}
			return socp.Expr(0).Plus(1, v)
		}
		mu := tg.Period
		for i := range tg.Tasks {
			w := &tg.Tasks[i]
			p, _ := c.Processor(w.Processor)
			q := reps[w.Name]
			for j := 0; j < q; j++ {
				// (6) per firing copy.
				bld.AddLE(
					sExpr(copyKey{w.Name, j, 1}).PlusConst(p.Replenishment).Plus(-1, beta[w.Name]),
					sExpr(copyKey{w.Name, j, 2}))
				// Sequencing edge v2_j → v2_{(j+1)%q}.
				next := (j + 1) % q
				tok := 0.0
				if next == 0 {
					tok = 1
				}
				bld.AddLE(
					sExpr(copyKey{w.Name, j, 2}).
						Plus(p.Replenishment*w.WCET, lam[w.Name]).
						PlusConst(-tok*mu),
					sExpr(copyKey{w.Name, next, 2}))
			}
		}
		for i := range tg.Buffers {
			b := &tg.Buffers[i]
			deps, err := dfmodel.ExpandBuffer(b, reps[b.From], reps[b.To], caps[b.Name])
			if err != nil {
				return nil, err
			}
			prod, _ := tg.Task(b.From)
			cons, _ := tg.Task(b.To)
			pProd, _ := c.Processor(prod.Processor)
			pCons, _ := c.Processor(cons.Processor)
			for _, d := range deps {
				var srcTask string
				var rate float64
				var src, dst copyKey
				if d.Space {
					srcTask = b.To
					rate = pCons.Replenishment * cons.WCET
					src = copyKey{b.To, d.SrcCopy, 2}
					dst = copyKey{b.From, d.DstCopy, 1}
				} else {
					srcTask = b.From
					rate = pProd.Replenishment * prod.WCET
					src = copyKey{b.From, d.SrcCopy, 2}
					dst = copyKey{b.To, d.DstCopy, 1}
				}
				bld.AddLE(
					sExpr(src).Plus(rate, lam[srcTask]).PlusConst(-float64(d.Delta)*mu),
					sExpr(dst))
			}
		}
	}
	// (9) per processor.
	for i := range c.Processors {
		p := &c.Processors[i]
		tasks := c.TasksOn(p.Name)
		if len(tasks) == 0 {
			continue
		}
		sum := socp.Expr(p.Overhead + float64(len(tasks))*g)
		for _, tn := range tasks {
			sum = sum.Plus(1, beta[tn])
		}
		bld.AddLE(sum, socp.Expr(p.Replenishment))
	}

	prob, err := bld.Build()
	if err != nil {
		return nil, err
	}
	sol, err := socp.SolveContext(ctx, prob, sopt)
	if err != nil {
		return nil, err
	}
	out := &budgetSolution{}
	switch sol.Status {
	case socp.StatusOptimal:
		out.status = core.StatusOptimal
	case socp.StatusPrimalInfeasible:
		out.status = core.StatusInfeasible
		return out, nil
	case socp.StatusCanceled:
		out.status = core.StatusCanceled
		return out, nil
	default:
		out.status = core.StatusError
		return out, nil
	}
	out.budgets = map[string]float64{}
	out.continuous = map[string]float64{}
	for _, tg := range c.Graphs {
		for i := range tg.Tasks {
			w := &tg.Tasks[i]
			bp := sol.X[beta[w.Name]]
			out.continuous[w.Name] = bp
			out.budgets[w.Name] = g * math.Ceil(bp/g-1e-6)
			out.total += w.EffectiveBudgetWeight() * out.budgets[w.Name]
		}
		for i := range tg.Buffers {
			b := &tg.Buffers[i]
			out.total += b.EffectiveSizeWeight() * float64(b.EffectiveContainerSize()) * float64(caps[b.Name])
		}
	}
	return out, nil
}

// pinnedTasks picks one reference task per weakly connected component.
func pinnedTasks(tg *taskgraph.TaskGraph) map[string]bool {
	parent := map[string]string{}
	var find func(x string) string
	find = func(x string) string {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, w := range tg.Tasks {
		parent[w.Name] = w.Name
	}
	for _, b := range tg.Buffers {
		parent[find(b.From)] = find(b.To)
	}
	pinned := map[string]bool{}
	seen := map[string]bool{}
	for _, w := range tg.Tasks {
		root := find(w.Name)
		if !seen[root] {
			seen[root] = true
			pinned[w.Name] = true
		}
	}
	return pinned
}
