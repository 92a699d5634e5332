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
//     HSDF expansion of the graph (dfmodel.NewModel, through Repetitions
//     and ExpandBuffer) yields affine PAS constraints in the budget
//     variables β′, λ, and core.TwoPhaseBufferFirst builds and solves the
//     same second-order cone program as Algorithm 1 over those queues,
//     with its latency rows and recovery ladder;
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
	"repro/internal/taskgraph"
)

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
func Solve(ctx context.Context, c *taskgraph.Config) (*Result, error) {
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
	// Each candidate's budgets come from the buffer-first baseline's cone
	// program over the expanded model at fixed capacities, with its
	// recovery ladder; verification runs once, on the final mapping.
	bopt := core.Options{SkipVerification: true}
	caps := map[string]int{}
	for k, v := range upper {
		caps[k] = v
	}
	cur, err := core.TwoPhaseBufferFirst(ctx, c, caps, bopt)
	if err != nil {
		return nil, err
	}
	res.Evaluated++
	if cur.Status != core.StatusOptimal {
		res.Status = cur.Status
		return res, nil
	}

	// Greedy descent on capacities: accept the single decrement with the
	// best total-cost improvement each round. Every accepted step lowers
	// one capacity, so the total slack bounds the rounds.
	for step := 0; step <= slack; step++ {
		var best *core.Result
		bestBuf := ""
		for _, tg := range c.Graphs {
			for i := range tg.Buffers {
				b := &tg.Buffers[i]
				if caps[b.Name] <= lower[b.Name] {
					continue
				}
				caps[b.Name]--
				sol, err := core.TwoPhaseBufferFirst(ctx, c, caps, bopt)
				res.Evaluated++
				caps[b.Name]++
				if err != nil {
					return nil, err
				}
				if sol.Status == core.StatusCanceled {
					// Don't keep probing decrements against a dead context;
					// surface the cancellation (the caller loses only the
					// not-yet-accepted descent step).
					res.Status = core.StatusCanceled
					return res, nil
				}
				if sol.Status != core.StatusOptimal {
					continue
				}
				if best == nil || sol.Mapping.Objective < best.Mapping.Objective {
					best, bestBuf = sol, b.Name
				}
			}
		}
		if best == nil || best.Mapping.Objective >= cur.Mapping.Objective-1e-9 {
			break
		}
		caps[bestBuf]--
		cur = best
	}

	res.Mapping = cur.Mapping
	res.ContinuousBudgets = cur.ContinuousBudgets
	res.Status = core.StatusOptimal
	v, err := dfmodel.Verify(c, res.Mapping)
	if err != nil {
		return nil, err
	}
	res.Verification = v
	if !v.OK {
		res.Status = core.StatusError
		return res, fmt.Errorf("mrate: mapping failed verification: %v", v.Problems)
	}
	return res, nil
}
