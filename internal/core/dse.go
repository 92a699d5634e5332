package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/socp"
	"repro/internal/taskgraph"
)

// minCapTol is the tolerance on the min-cap optimum t* before it is
// rounded up to the first cap worth probing. Caps are integers, so it only
// needs to sit between the solver's accuracy on t* and the unit step: a t*
// that the solver puts just above an integer k when k itself passes must
// still start the search at k. A true t* within minCapTol above k only
// costs a rejected first probe, never a wrong answer.
const minCapTol = 1e-3

// DSEOptions configures a search for the smallest uniform buffer capacity
// cap (see DSEBisect).
type DSEOptions struct {
	// Buffers names the buffers the cap applies to; nil means all buffers.
	Buffers []string
	// MaxCap is the largest capacity cap considered; the search range is
	// [1, MaxCap]. Must be ≥ 1.
	MaxCap int
	// BudgetBound declares a cap feasible only when the solve is optimal
	// AND its total allocated (rounded) budget is ≤ BudgetBound. A value
	// ≤ 0 means no budget bound: any optimal solve is feasible.
	BudgetBound float64
}

// DSEProbe records one solve of a cap, in probe order.
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
	// no cap in that range is feasible.
	Cap int
	// Result is the full solve at Cap (nil when Cap == -1).
	Result *Result
	// MinCap is t*, the optimum of the min-cap cone program: no cap below
	// ⌈t*⌉ is feasible. NaN when that solve did not end optimal.
	MinCap float64
	// MinCapReport records the min-cap solve and its recovery attempts
	// (nil when the call failed before that solve).
	MinCapReport *SolveReport
	// Solves is the number of cone solves performed, the min-cap solve
	// included: 1 when no cap is feasible by the relaxation, 2 when ⌈t*⌉
	// is confirmed, at most 3 + ⌈log₂ MaxCap⌉ otherwise.
	Solves int
	// Probes lists every solve of a cap in the order performed; the
	// min-cap solve is not a probe.
	Probes []DSEProbe
}

// DSEBisect finds the smallest uniform buffer-capacity cap that admits a
// feasible mapping within an optional budget bound — the design-space
// exploration question "how little buffer memory do we actually need?" —
// in two solves instead of the d solves of a linear sweep
// (SweepBufferCaps over 1..d).
//
// The question is itself a cone program: Algorithm 1 at cap MaxCap plus a
// variable t with ι(b) + δ′(b) ≤ t for every swept buffer (and t ≥ 1), and
// Σβ′ ≤ BudgetBound when a bound is set, minimizing t. Its optimum t* is a
// lower bound on the answer: a cap k that passes has a relaxed point with
// every swept δ′ ≤ k − ι, and rounding only raises budgets and
// capacities, so that point fits the program with t = k. DSEBisect solves
// the program once (infeasible ⇒ no cap in [1, MaxCap] works, done) and
// probes ⌈t*⌉ (within minCapTol); no cap below it can pass, so an
// accepted probe is the answer whether or not the predicate is monotone
// in the cap. Only when that probe is rejected, or the min-cap solve ends
// neither optimal nor infeasible, does it bisect the caps above — and
// bisection assumes the predicate is monotone, which the rounded budget
// need not be. The probes share one build of Algorithm 1 (see capFamily),
// which the min-cap program extends, and one pattern cache; the bisection
// warm-starts every probe from the previous one. The probe sequence is
// deterministic; disabling reuse (Options.NoWarmStart / NoPatternCache)
// changes solve times, not the sequence or the answer.
//
// A canceled context ends the search with the context's error, never with
// a verdict. The returned result is the solve at the answering cap itself,
// so its mapping is directly usable.
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
	// Caps below a swept buffer's initial tokens or minimum capacity are no
	// configuration at all: every cap below least fails by definition.
	least := 1
	for _, tg := range c.Graphs {
		for i := range tg.Buffers {
			if bf := &tg.Buffers[i]; dse.Buffers == nil || want[bf.Name] {
				found[bf.Name] = true
				least = max(least, bf.InitialTokens, bf.MinContainers)
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

	res := &DSEResult{Cap: -1, MinCap: math.NaN()}
	var warm *socp.WarmStart
	results := map[int]*Result{}
	probe := func(cap int) (bool, error) {
		r, w, err := fam.solve(ctx, withCaps(c, cap, swept), opt, warm)
		if err != nil {
			return false, err
		}
		res.Solves++
		if r.Status == StatusCanceled {
			return false, ctx.Err()
		}
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

	start, err := solveMinCap(ctx, c, &fam, swept, dse, opt, res)
	if err != nil || start < 0 {
		return res, err
	}
	cap, err := dseSearch(start, least-1, dse.MaxCap, probe)
	if err != nil || cap < 0 {
		return res, err
	}
	res.Cap = cap
	res.Result = results[cap]
	return res, nil
}

// solveMinCap builds fam from c at cap MaxCap, extends its model into the
// min-cap program and solves it, recording the solve in res. It returns
// the first cap the search must probe: ⌈t*⌉ when the solve is optimal, 0
// (no lower bound known) when it ends otherwise undecided, and −1 when it
// proves that no cap in [1, MaxCap] is feasible.
func solveMinCap(ctx context.Context, c *taskgraph.Config, fam *capFamily, swept func(*taskgraph.Buffer) bool, dse DSEOptions, opt Options, res *DSEResult) (int, error) {
	if err := fam.build(withCaps(c, dse.MaxCap, swept)); err != nil {
		return -1, err
	}
	prob, t, err := fam.m.minCapProblem(swept, dse.BudgetBound)
	if err != nil {
		return -1, err
	}
	sopt := opt.Solver
	sopt.WarmStart = nil
	sol, report, err := solveConic(ctx, prob, sopt)
	res.MinCapReport = report
	res.Solves++
	if err != nil {
		return -1, err
	}
	switch sol.Status {
	case socp.StatusOptimal:
		res.MinCap = sol.X[t]
		start := int(math.Ceil(res.MinCap - minCapTol))
		return max(1, min(start, dse.MaxCap)), nil
	case socp.StatusPrimalInfeasible:
		return -1, nil
	case socp.StatusCanceled:
		return -1, ctx.Err()
	default:
		return 0, nil
	}
}

// dseSearch returns the smallest cap in [1, maxCap] that probe accepts, or
// −1 when it accepts none. Every cap ≤ lo fails without a probe (lo ≥ 0),
// and no cap below start may pass: a start above lo is probed first and is
// the answer when accepted. Otherwise — and from the start when start ≤ lo,
// no bound beyond lo being known — it probes maxCap and then bisects
// between the largest cap known to fail and the smallest known to pass,
// which assumes that the predicate is monotone in the cap.
func dseSearch(start, lo, maxCap int, probe func(cap int) (bool, error)) (int, error) {
	// Invariant: every cap ≤ lo fails (0 is a virtual "no buffers"
	// sentinel, infeasible by definition since caps start at 1).
	if start > lo {
		ok, err := probe(start)
		if err != nil {
			return -1, err
		}
		if ok {
			return start, nil
		}
		lo = start
	}
	if lo >= maxCap {
		return -1, nil
	}
	// The loosest cap next: if even maxCap fails, no cap in range works.
	ok, err := probe(maxCap)
	if err != nil || !ok {
		return -1, err
	}
	hi := maxCap
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		ok, err := probe(mid)
		if err != nil {
			return -1, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// minCapProblem extends m's builder, which has already built m's own cone
// program, into the min-cap program of DSEBisect and builds it. It returns
// the program and the index of its variable t. The paper's objective is
// cancelled term by term (each coefficient was set once, so w − w is
// exactly 0) and t minimized, subject to ι(b) + δ′(b) ≤ t for every buffer
// swept selects and t ≥ 1. A budget bound > 0 adds Σβ′ ≤ bound plus the
// most that rounding can lower a budget sum below its relaxation (each
// β = g·⌈β′/g − roundTol⌉ ≥ β′ − g·roundTol), plus roundTol relative, so
// that the row cuts off no cap whose rounded sum meets the bound. m's
// other rows keep their row indices, so m's own program and its cap rows
// are unaffected; m's builder is spent.
func (m *model) minCapProblem(swept func(*taskgraph.Buffer) bool, bound float64) (*socp.Problem, int, error) {
	t := m.b.AddVar()
	m.addObjective(-1)
	m.b.SetObjective(t, 1)
	tv := socp.Expr(0).Plus(1, t)
	m.b.AddLE(socp.Expr(1), tv)
	var budget socp.Affine
	for _, tg := range m.cfg.Graphs {
		for j := range tg.Buffers {
			if bf := &tg.Buffers[j]; swept(bf) {
				m.b.AddLE(socp.Expr(float64(bf.InitialTokens)).Plus(1, m.delta[bf.Name]), tv)
			}
		}
		for i := range tg.Tasks {
			budget.Terms = append(budget.Terms, socp.Term{Var: m.beta[tg.Tasks[i].Name], Coef: 1})
		}
	}
	if bound > 0 {
		slack := float64(len(budget.Terms))*m.cfg.EffectiveGranularity()*roundTol + roundTol*bound
		m.b.AddLE(budget, socp.Expr(bound+slack))
	}
	prob, err := m.b.Build()
	return prob, t, err
}
