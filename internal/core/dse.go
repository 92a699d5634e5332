package core

import (
	"context"
	"fmt"

	"repro/internal/socp"
	"repro/internal/taskgraph"
)

// DSEOptions configures a bisection search over a uniform buffer capacity
// cap (see DSEBisect).
type DSEOptions struct {
	// Buffers names the buffers the cap applies to; nil means all buffers.
	Buffers []string
	// MaxCap is the largest capacity cap considered (the d of the O(log d)
	// bound); the search range is [1, MaxCap]. Must be ≥ 1.
	MaxCap int
	// BudgetBound declares a cap feasible only when the solve is optimal
	// AND its total allocated budget is ≤ BudgetBound. A value ≤ 0 means no
	// budget bound: any optimal solve is feasible. Budget is monotone
	// non-increasing in the cap (larger buffers buy smaller budgets —
	// the paper's trade-off), which is what makes bisection valid.
	BudgetBound float64
}

// DSEProbe records one solve of the bisection, in probe order.
type DSEProbe struct {
	// Cap is the probed capacity cap.
	Cap int
	// OK reports whether the probe was feasible under the DSE predicate.
	OK bool
	// BudgetSum is the probe's total allocated budget (NaN when the probe
	// was infeasible).
	BudgetSum float64
}

// DSEResult is the outcome of DSEBisect.
type DSEResult struct {
	// Cap is the smallest feasible capacity cap in [1, MaxCap], or -1 when
	// even MaxCap is infeasible.
	Cap int
	// Result is the full solve at Cap (nil when Cap == -1).
	Result *Result
	// Solves is the number of cone solves performed: 1 when MaxCap is
	// infeasible, at most 1 + ⌈log₂ MaxCap⌉ otherwise.
	Solves int
	// Probes lists every solve in the order performed.
	Probes []DSEProbe
}

// DSEBisect finds the smallest uniform buffer-capacity cap that admits a
// feasible mapping within an optional budget bound — the design-space
// exploration question "how little buffer memory do we actually need?" —
// in O(log d) solves instead of the d solves of a linear sweep
// (SweepBufferCaps over 1..d).
//
// The predicate "cap admits a mapping with total budget ≤ bound" is
// monotone in the cap: raising a buffer cap only relaxes constraints, so
// feasibility can only appear and the optimal budget only shrink. DSEBisect
// exploits this by probing MaxCap once (infeasible ⇒ no cap works, done in
// one solve) and then bisecting, warm-starting every probe from the
// previous probe's interior point and sharing one pattern cache and one
// build of the cone program (see capFamily) across all of them, so the
// later probes cost a fraction of a cold solve. The probe
// sequence is deterministic; disabling reuse (Options.NoWarmStart /
// NoPatternCache) changes solve times, not the sequence or the answer.
//
// The returned result is the solve at the answering cap itself, so its
// mapping is directly usable.
func DSEBisect(ctx context.Context, c *taskgraph.Config, dse DSEOptions, opt Options) (*DSEResult, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if dse.MaxCap < 1 {
		return nil, fmt.Errorf("core: DSE max cap %d < 1", dse.MaxCap)
	}
	want := map[string]bool{}
	for _, b := range dse.Buffers {
		want[b] = true
	}
	found := map[string]bool{}
	for _, tg := range c.Graphs {
		for i := range tg.Buffers {
			if bf := &tg.Buffers[i]; dse.Buffers == nil || want[bf.Name] {
				found[bf.Name] = true
			}
		}
	}
	for _, b := range dse.Buffers {
		if !found[b] {
			return nil, fmt.Errorf("core: DSE buffer %q not found in configuration", b)
		}
	}
	sweepCache(&opt)
	swept := func(bf *taskgraph.Buffer) bool { return dse.Buffers == nil || want[bf.Name] }
	var fam capFamily

	res := &DSEResult{Cap: -1}
	var warm *socp.WarmStart
	results := map[int]*Result{}
	probe := func(cap int) (bool, error) {
		r, w, err := fam.solve(ctx, withCaps(c, cap, swept), opt, warm)
		if err != nil {
			return false, err
		}
		res.Solves++
		if w != nil {
			warm = w
		}
		results[cap] = r
		p := DSEProbe{Cap: cap, OK: r.Status == StatusOptimal, BudgetSum: TradeoffPoint{Result: r}.BudgetSum()}
		if p.OK && dse.BudgetBound > 0 && p.BudgetSum > dse.BudgetBound {
			p.OK = false
		}
		res.Probes = append(res.Probes, p)
		return p.OK, nil
	}

	// The loosest cap first: if even MaxCap fails, no cap in range works.
	ok, err := probe(dse.MaxCap)
	if err != nil {
		return res, err
	}
	if !ok {
		return res, nil
	}
	// Invariant: lo is infeasible (0 is a virtual "no buffers" sentinel,
	// infeasible by definition since caps start at 1), hi is feasible.
	lo, hi := 0, dse.MaxCap
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		ok, err := probe(mid)
		if err != nil {
			return res, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	res.Cap = hi
	res.Result = results[hi]
	return res, nil
}
