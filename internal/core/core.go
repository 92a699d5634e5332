// Package core implements the paper's contribution: simultaneous computation
// of scheduler budgets and FIFO buffer capacities that guarantee a
// throughput constraint, by solving the second-order cone program of
// Algorithm 1 and rounding its relaxed solution conservatively.
//
// The pipeline is:
//
//  1. take every task graph's two-actor SRDF model of §II-C from
//     dfmodel.NewModel and give it variables: a start time per actor
//     (except the pinned one of each component), per-task budget variables
//     β′(w) and rate variables λ(w) ≈ 1/β′(w), and per-buffer space-token
//     variables δ′(b);
//  2. emit Constraints (6)–(10) plus optional per-buffer capacity bounds
//     into a cone program — (6) on each v1→v2 queue of the model, (7) on
//     every other queue (the hyperbolic Constraint (8) becomes the
//     second-order cone ‖(2, β′−λ)‖ ≤ β′+λ);
//  3. solve with the interior-point method in internal/socp;
//  4. round budgets up to the allocation granularity (β = g·⌈β′/g⌉) and
//     buffer capacities up to integers (γ = ι + ⌈δ′⌉) — conservative by the
//     monotonicity argument in §IV, because (9) and (10) pre-pay the
//     rounding slack;
//  5. re-verify the rounded mapping with the independent SRDF analysis in
//     internal/dfmodel.
package core

import (
	"fmt"

	"repro/internal/dfmodel"
	"repro/internal/socp"
	"repro/internal/srdf"
	"repro/internal/taskgraph"
)

// Status is the outcome of a mapping computation.
type Status int

const (
	// StatusOptimal: a mapping was found and verified.
	StatusOptimal Status = iota
	// StatusInfeasible: the constraints admit no mapping (certificate found).
	StatusInfeasible
	// StatusError: the solver failed numerically or verification failed.
	StatusError
	// StatusCanceled: the caller's context was canceled or its deadline
	// expired before the solve finished.
	StatusCanceled
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusError:
		return "error"
	case StatusCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Options configures the joint solve.
type Options struct {
	// Solver are the interior-point options (zero value = defaults).
	Solver socp.Options
	// SkipVerification disables the post-rounding SRDF verification (used
	// only by benchmarks that measure pure solve time).
	SkipVerification bool
	// Parallelism bounds the worker pool used by the sweep drivers
	// (SweepBufferCaps, ParetoFrontier, and the experiments built on them),
	// which run one independent SOCP solve per sweep point. Values ≤ 0
	// select GOMAXPROCS; 1 forces sequential execution. Results are ordered
	// deterministically either way.
	Parallelism int
	// NoWarmStart disables warm-start threading between neighboring sweep
	// points: every solve runs from the cold least-squares starting point,
	// bit-identical to solving each point independently. The default (warm
	// starts on) converges to the same mappings within solver tolerance in a
	// fraction of the iterations.
	NoWarmStart bool
	// NoPatternCache disables the socp.PatternCache the sweep drivers thread
	// through their solves, which shares factorization pipelines and their
	// symbolic analyses between solves of one sparsity pattern. The cache only changes
	// where the solver's buffers come from — never any computed value — so
	// this switch exists for isolation and benchmarking, not correctness.
	NoPatternCache bool
	// WarmChunk is the length of the sequential warm-start chains a sweep is
	// partitioned into (default 8; values < 1 select the default). Chunks
	// run in parallel on the worker pool; within a chunk the points run in
	// order, each warm-started from its predecessor. The chunk length is
	// part of the sweep's definition — never derived from Parallelism or
	// the machine — so sweep outputs are bitwise reproducible at any
	// parallelism. Larger chunks warm-start more points per chain (faster
	// sequentially, less parallel); a sweep's point count caps the useful
	// value.
	WarmChunk int
}

// warmChunk returns the effective warm-chain length.
func (o Options) warmChunk() int {
	if o.WarmChunk < 1 {
		return 8
	}
	return o.WarmChunk
}

// Result is the outcome of Solve.
type Result struct {
	Status  Status
	Mapping *taskgraph.Mapping // nil unless StatusOptimal

	// ContinuousBudgets and ContinuousDeltas are the relaxed (pre-rounding)
	// optimizer values β′(w) and δ′(b). A map is nil for what a flow fixed
	// before solving: the budgets in TwoPhaseBudgetFirst, the δ′ in
	// TwoPhaseBufferFirst. The joint solve fills both.
	ContinuousBudgets map[string]float64
	ContinuousDeltas  map[string]float64
	// ContinuousObjective is the relaxed optimum of Algorithm 1's objective,
	// over the terms of the variables the flow did not fix.
	ContinuousObjective float64

	// SolverStatus and SolverIterations describe the cone solve; they mean
	// something only when Report is non-nil.
	SolverStatus     socp.Status
	SolverIterations int

	// Report records every solver attempt the recovery ladder made for this
	// result, including the final backend (nil for flows that never reach
	// the cone solver, e.g. an infeasible budget-first phase 1).
	Report *SolveReport

	// Verification holds the independent feasibility check of the rounded
	// mapping (nil when SkipVerification is set or no mapping was produced).
	Verification *dfmodel.Verification
}

// model holds the variable bookkeeping of the symbolic Algorithm 1 program.
type model struct {
	cfg *taskgraph.Config
	b   *socp.Builder

	// graphs holds the SRDF model of each task graph, in Graphs order.
	graphs []graphModel
	// beta and lam map task name to the β′ and λ variables; both are
	// empty when budgets fixes every budget.
	beta map[string]int
	lam  map[string]int
	// delta maps buffer name to the δ′ variable (space-queue tokens); it
	// is empty when caps fixes every capacity.
	delta map[string]int
	// caps optionally fixes every buffer's capacity (buffer-first
	// baseline). nil means all δ′ are variables.
	caps map[string]int
	// budgets optionally fixes every task's budget (budget-first
	// baseline). nil means all β′ and λ are variables.
	budgets map[string]float64
}

// graphModel is one task graph's SRDF model with its start-time variables.
type graphModel struct {
	tg *taskgraph.TaskGraph
	md *dfmodel.Model
	// sv maps each actor to the builder variable of its start time, or −1
	// for a pinned actor (start time fixed to 0).
	sv []int
	// capRow maps each buffer, in Buffers order, to the row of h holding
	// its cap bound max − ι, or −1 when the buffer has none.
	capRow []int
}

// sExpr returns the affine expression for an actor's start time (0 for a
// pinned actor).
func (gm *graphModel) sExpr(a srdf.ActorID) socp.Affine {
	v := gm.sv[a]
	if v < 0 {
		return socp.Expr(0)
	}
	return socp.Expr(0).Plus(1, v)
}

// plusDuration returns e plus the firing duration of actor a: ϱ − β′(w)
// for a v1 actor and ϱ·χ(w)·λ(w) for a v2 actor of task w. With fixed
// budgets the durations are the constants ϱ − β(w) and ϱ·χ(w)/β(w).
func (m *model) plusDuration(e socp.Affine, gm *graphModel, a srdf.ActorID) socp.Affine {
	f, v2 := gm.md.Firing(a)
	w := &gm.tg.Tasks[f.Task]
	p, _ := m.cfg.Processor(w.Processor)
	if beta, ok := m.budgets[w.Name]; ok {
		d := p.Replenishment - beta
		if v2 {
			d = p.Replenishment * w.WCET / beta
		}
		return e.PlusConst(d)
	}
	if v2 {
		return e.Plus(p.Replenishment*w.WCET, m.lam[w.Name])
	}
	return e.PlusConst(p.Replenishment).Plus(-1, m.beta[w.Name])
}

// buildModel constructs the full Algorithm 1 cone program for a validated
// configuration. When caps is non-nil it fixes every buffer's capacity
// instead of creating δ′ variables (the buffer-first baseline, which also
// accepts multi-rate graphs). When budgets is non-nil it fixes every task's
// budget instead of creating β′ and λ variables (the budget-first
// baseline): the program is then the linear one of minimal buffers.
func buildModel(c *taskgraph.Config, caps map[string]int, budgets map[string]float64) (*model, error) {
	if caps == nil && c.MultiRate() {
		return nil, fmt.Errorf("core: configuration has multi-rate buffers; use the hybrid solver in internal/mrate")
	}
	m := &model{
		cfg:     c,
		b:       socp.NewBuilder(),
		graphs:  make([]graphModel, 0, len(c.Graphs)),
		beta:    map[string]int{},
		lam:     map[string]int{},
		delta:   map[string]int{},
		caps:    caps,
		budgets: budgets,
	}
	for _, tg := range c.Graphs {
		md, err := dfmodel.NewModel(tg, caps)
		if err != nil {
			return nil, err
		}
		gm := graphModel{tg: tg, md: md, sv: make([]int, 2*len(md.Firings)), capRow: make([]int, len(tg.Buffers))}
		for i := range gm.capRow {
			gm.capRow[i] = -1
		}
		for k, f := range md.Firings {
			gm.sv[dfmodel.V1(k)] = -1
			if !f.Pinned {
				gm.sv[dfmodel.V1(k)] = m.b.AddVar()
			}
			gm.sv[dfmodel.V2(k)] = m.b.AddVar()
			if budgets == nil && (k+1 == len(md.Firings) || md.Firings[k+1].Task != f.Task) {
				name := tg.Tasks[f.Task].Name
				m.beta[name] = m.b.AddVar()
				m.lam[name] = m.b.AddVar()
			}
		}
		if caps == nil {
			for i := range tg.Buffers {
				m.delta[tg.Buffers[i].Name] = m.b.AddVar()
			}
		}
		m.graphs = append(m.graphs, gm)
	}
	m.addConstraints()
	m.addObjective(1)
	return m, nil
}

// addConstraints emits Constraints (6)-(10) plus the per-buffer capacity
// bounds used for trade-off exploration.
func (m *model) addConstraints() {
	c := m.cfg
	g := c.EffectiveGranularity()
	for gi := range m.graphs {
		gm := &m.graphs[gi]
		mu := gm.tg.Period
		// (8): λ(w)·β′(w) ≥ 1 as a second-order cone.
		if m.budgets == nil {
			for i := range gm.tg.Tasks {
				name := gm.tg.Tasks[i].Name
				m.b.AddProductGE(m.lam[name], m.beta[name], 1)
			}
		}
		// (6) on each v1→v2 queue and (7) on every other queue with δ
		// tokens: s(src) + ρ(src) − δ·µ ≤ s(dst). On a single-rate task's
		// self-loop (one token) the start times cancel, leaving the rate
		// constraint ϱ·λ(w)·χ(w) ≤ µ. With fixed budgets that row has no
		// variable left: it is the rate check of the budget-first phase 1,
		// so it is not emitted.
		for _, q := range gm.md.Queues {
			if m.budgets != nil && q.Src == q.Dst {
				continue
			}
			lhs := m.plusDuration(gm.sExpr(q.Src), gm, q.Src)
			if q.Tokens != 0 {
				lhs = lhs.PlusConst(-float64(q.Tokens) * mu)
			}
			free := q.Space && m.caps == nil
			var bf *taskgraph.Buffer
			if free {
				// The space queue carries δ′(b) tokens.
				bf = &gm.tg.Buffers[q.Buffer]
				lhs = lhs.Plus(-mu, m.delta[bf.Name])
			}
			m.b.AddLE(lhs, gm.sExpr(q.Dst))
			if !free {
				continue
			}
			// δ′ ≥ 0.
			m.b.AddNonNeg(socp.Expr(0).Plus(1, m.delta[bf.Name]))
			// Capacity bounds: γ = ι + ⌈δ′⌉, so γ ≤ max ⟺ δ′ ≤ max − ι
			// (the bound is integral) and γ ≥ min ⟸ δ′ ≥ min − ι
			// (conservative by at most one container).
			if bf.MaxContainers > 0 {
				gm.capRow[q.Buffer] = m.b.AddLE(
					socp.Expr(0).Plus(1, m.delta[bf.Name]),
					socp.Expr(float64(bf.MaxContainers-bf.InitialTokens)))
			}
			if lo := bf.MinContainers - bf.InitialTokens; lo > 0 {
				m.b.AddNonNeg(socp.Expr(-float64(lo)).Plus(1, m.delta[bf.Name]))
			}
		}
	}
	// Latency constraints (extension): in the schedule the optimizer picks,
	// the completion of sink's firing trails the activation of src's firing
	// by s(v2_sink) + ϱ·λ·χ(sink) − s(v1_src), which is affine in the
	// variables, so the bound slots straight into the cone program.
	for gi := range m.graphs {
		gm := &m.graphs[gi]
		for _, l := range gm.md.Latencies {
			lhs := m.plusDuration(gm.sExpr(l.Dst), gm, l.Dst).Minus(gm.sExpr(l.Src))
			m.b.AddLE(lhs, socp.Expr(l.Bound))
		}
	}

	// The coupling rows collect their terms in one slice each: (9) and
	// (10) touch every budget of a processor or every buffer of a memory.
	// (9): per processor, ϱ(p) ≥ o(p) + Σ_{w∈τ(p)} (β′(w) + g). Fixed
	// budgets were checked against their processors before the build.
	for i := range c.Processors {
		if m.budgets != nil {
			break
		}
		p := &c.Processors[i]
		tasks := c.TasksOn(p.Name)
		if len(tasks) == 0 {
			continue
		}
		sum := socp.Affine{Const: p.Overhead + float64(len(tasks))*g, Terms: make([]socp.Term, 0, len(tasks))}
		for _, tn := range tasks {
			sum.Terms = append(sum.Terms, socp.Term{Var: m.beta[tn], Coef: 1})
		}
		m.b.AddLE(sum, socp.Expr(p.Replenishment))
	}
	// (10): per memory, ς(m) ≥ Σ_{b∈ψ(m)} (ι(b) + δ′(b) + 1)·ζ(b). Fixed
	// capacities were checked against their memories before the build.
	for i := range c.Memories {
		if m.caps != nil {
			break
		}
		mem := &c.Memories[i]
		var sum socp.Affine
		nb := 0
		for _, tg := range c.Graphs {
			for j := range tg.Buffers {
				bf := &tg.Buffers[j]
				if bf.Memory != mem.Name {
					continue
				}
				z := float64(bf.EffectiveContainerSize())
				sum.Const += z * float64(bf.InitialTokens+1)
				sum.Terms = append(sum.Terms, socp.Term{Var: m.delta[bf.Name], Coef: z})
				nb++
			}
		}
		if nb > 0 {
			m.b.AddLE(sum, socp.Expr(float64(mem.Capacity)))
		}
	}
}

// addObjective adds scale times the weighted objective (5),
// Σ a(w)·β′(w) + Σ b(e)·ζ(e)·δ′(e), to the builder's objective: scale 1
// emits it, −1 cancels it exactly. Fixed budgets or capacities contribute
// no terms.
func (m *model) addObjective(scale float64) {
	for _, tg := range m.cfg.Graphs {
		for i := range tg.Tasks {
			w := &tg.Tasks[i]
			if m.budgets == nil {
				m.b.SetObjective(m.beta[w.Name], scale*w.EffectiveBudgetWeight())
			}
		}
		if m.caps != nil {
			continue
		}
		for i := range tg.Buffers {
			bf := &tg.Buffers[i]
			m.b.SetObjective(m.delta[bf.Name],
				scale*(bf.EffectiveSizeWeight()*float64(bf.EffectiveContainerSize())))
		}
	}
}
