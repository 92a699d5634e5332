// Package core implements the paper's contribution: simultaneous computation
// of scheduler budgets and FIFO buffer capacities that guarantee a
// throughput constraint, by solving the second-order cone program of
// Algorithm 1 and rounding its relaxed solution conservatively.
//
// The pipeline is:
//
//  1. translate every task graph into the symbolic two-actor SRDF model of
//     §II-C, with per-task budget variables β′(w) and rate variables
//     λ(w) ≈ 1/β′(w), and per-buffer space-token variables δ′(b);
//  2. emit Constraints (6)–(10) plus optional per-buffer capacity bounds
//     into a cone program (the hyperbolic Constraint (8) becomes the
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
	// optimizer values β′(w) and δ′(b).
	ContinuousBudgets map[string]float64
	ContinuousDeltas  map[string]float64
	// ContinuousObjective is the relaxed optimum of Algorithm 1's objective.
	ContinuousObjective float64

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

	// sv maps (graph, actor) to the builder variable of its start time, or
	// -1 when the actor is the pinned reference of its weakly connected
	// component (start time fixed to 0 to remove the translation nullspace).
	sv map[actorKey]int
	// beta and lam map task name to the β′ and λ variables.
	beta map[string]int
	lam  map[string]int
	// delta maps buffer name to the δ′ variable (space-queue tokens).
	// Buffers listed in fixedDeltas have no variable.
	delta map[string]int
	// fixedDeltas optionally pins buffers' δ′ to constants (buffer-first
	// baseline). nil means all buffers are variable.
	fixedDeltas map[string]float64
}

type actorKey struct {
	graph string
	task  string
	which int // 1 = v1 (latency actor), 2 = v2 (rate actor)
}

// sExpr returns the affine expression for a start-time variable (0 for the
// pinned reference actor).
func (m *model) sExpr(k actorKey) socp.Affine {
	v := m.sv[k]
	if v < 0 {
		return socp.Expr(0)
	}
	return socp.Expr(0).Plus(1, v)
}

// buildModel constructs the full Algorithm 1 cone program for the
// configuration. When fixedDeltas is non-nil it fixes every listed buffer's
// δ′ to the given constant instead of creating a variable (used by the
// buffer-first baseline).
func buildModel(c *taskgraph.Config, fixedDeltas map[string]float64) (*model, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.MultiRate() {
		return nil, fmt.Errorf("core: configuration has multi-rate buffers; use the hybrid solver in internal/mrate")
	}
	m := &model{
		cfg:         c,
		b:           socp.NewBuilder(),
		sv:          map[actorKey]int{},
		beta:        map[string]int{},
		lam:         map[string]int{},
		delta:       map[string]int{},
		fixedDeltas: fixedDeltas,
	}
	for _, tg := range c.Graphs {
		pinned := pickPinned(tg)
		for i := range tg.Tasks {
			w := &tg.Tasks[i]
			for _, which := range []int{1, 2} {
				k := actorKey{tg.Name, w.Name, which}
				if which == 1 && pinned[w.Name] {
					m.sv[k] = -1
					continue
				}
				m.sv[k] = m.b.AddVar()
			}
			m.beta[w.Name] = m.b.AddVar()
			m.lam[w.Name] = m.b.AddVar()
		}
		for i := range tg.Buffers {
			bf := &tg.Buffers[i]
			if _, fixed := m.fixedDeltas[bf.Name]; !fixed {
				m.delta[bf.Name] = m.b.AddVar()
			}
		}
	}
	if err := m.addConstraints(); err != nil {
		return nil, err
	}
	m.addObjective()
	return m, nil
}

// pickPinned chooses one reference task per weakly connected component of
// the task graph; the reference task's v1 start time is fixed to 0.
func pickPinned(tg *taskgraph.TaskGraph) map[string]bool {
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

// addConstraints emits Constraints (6)-(10) plus the per-buffer capacity
// bounds used for trade-off exploration.
func (m *model) addConstraints() error {
	c := m.cfg
	g := c.EffectiveGranularity()
	for _, tg := range c.Graphs {
		mu := tg.Period
		for i := range tg.Tasks {
			w := &tg.Tasks[i]
			p, _ := c.Processor(w.Processor)
			rho := p.Replenishment
			v1 := actorKey{tg.Name, w.Name, 1}
			v2 := actorKey{tg.Name, w.Name, 2}
			// (6) on the E1 edge v1→v2 (0 tokens):
			//     s(v1) + ϱ − β′(w) ≤ s(v2).
			m.b.AddLE(
				m.sExpr(v1).PlusConst(rho).Plus(-1, m.beta[w.Name]),
				m.sExpr(v2))
			// (7) on the self-loop v2→v2 (1 token):
			//     ϱ·λ(w)·χ(w) ≤ µ  (the rate constraint).
			m.b.AddLE(
				socp.Expr(0).Plus(rho*w.WCET, m.lam[w.Name]),
				socp.Expr(mu))
			// (8): λ(w)·β′(w) ≥ 1 as a second-order cone.
			m.b.AddProductGE(m.lam[w.Name], m.beta[w.Name], 1)
		}
		for i := range tg.Buffers {
			bf := &tg.Buffers[i]
			prod, _ := tg.Task(bf.From)
			cons, _ := tg.Task(bf.To)
			pProd, _ := c.Processor(prod.Processor)
			pCons, _ := c.Processor(cons.Processor)
			// (7) on the data queue a2→b1 (ι(b) tokens):
			//     s(a2) + ϱ(a)·λ(a)·χ(a) − ι(b)·µ ≤ s(b1).
			m.b.AddLE(
				m.sExpr(actorKey{tg.Name, bf.From, 2}).
					Plus(pProd.Replenishment*prod.WCET, m.lam[bf.From]).
					PlusConst(-float64(bf.InitialTokens)*mu),
				m.sExpr(actorKey{tg.Name, bf.To, 1}))
			// (7) on the space queue b2→a1 (δ′(b) tokens, variable unless
			// fixed by the buffer-first baseline):
			//     s(b2) + ϱ(b)·λ(b)·χ(b) − δ′(b)·µ ≤ s(a1).
			lhs := m.sExpr(actorKey{tg.Name, bf.To, 2}).
				Plus(pCons.Replenishment*cons.WCET, m.lam[bf.To])
			if fd, fixed := m.fixedDeltas[bf.Name]; fixed {
				lhs = lhs.PlusConst(-mu * fd)
			} else {
				lhs = lhs.Plus(-mu, m.delta[bf.Name])
			}
			m.b.AddLE(lhs, m.sExpr(actorKey{tg.Name, bf.From, 1}))
			if _, fixed := m.fixedDeltas[bf.Name]; fixed {
				continue
			}
			// δ′ ≥ 0.
			m.b.AddNonNeg(socp.Expr(0).Plus(1, m.delta[bf.Name]))
			// Capacity bounds: γ = ι + ⌈δ′⌉, so γ ≤ max ⟺ δ′ ≤ max − ι
			// (the bound is integral) and γ ≥ min ⟸ δ′ ≥ min − ι
			// (conservative by at most one container).
			if bf.MaxContainers > 0 {
				m.b.AddLE(
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
	for _, tg := range c.Graphs {
		for _, lc := range tg.Latencies {
			sink, _ := tg.Task(lc.To)
			pSink, _ := c.Processor(sink.Processor)
			lhs := m.sExpr(actorKey{tg.Name, lc.To, 2}).
				Plus(pSink.Replenishment*sink.WCET, m.lam[lc.To]).
				Minus(m.sExpr(actorKey{tg.Name, lc.From, 1}))
			m.b.AddLE(lhs, socp.Expr(lc.Bound))
		}
	}

	// (9): per processor, ϱ(p) ≥ o(p) + Σ_{w∈τ(p)} (β′(w) + g).
	for i := range c.Processors {
		p := &c.Processors[i]
		tasks := c.TasksOn(p.Name)
		if len(tasks) == 0 {
			continue
		}
		sum := socp.Expr(p.Overhead + float64(len(tasks))*g)
		for _, tn := range tasks {
			sum = sum.Plus(1, m.beta[tn])
		}
		m.b.AddLE(sum, socp.Expr(p.Replenishment))
	}
	// (10): per memory, ς(m) ≥ Σ_{b∈ψ(m)} (ι(b) + δ′(b) + 1)·ζ(b).
	for i := range c.Memories {
		mem := &c.Memories[i]
		sum := socp.Expr(0)
		nb := 0
		for _, tg := range c.Graphs {
			for j := range tg.Buffers {
				bf := &tg.Buffers[j]
				if bf.Memory != mem.Name {
					continue
				}
				z := float64(bf.EffectiveContainerSize())
				if fd, fixed := m.fixedDeltas[bf.Name]; fixed {
					// A fixed buffer occupies exactly γ·ζ = (ι + δ′)·ζ.
					sum = sum.PlusConst(z * (float64(bf.InitialTokens) + fd))
				} else {
					sum = sum.PlusConst(z*float64(bf.InitialTokens+1)).Plus(z, m.delta[bf.Name])
				}
				nb++
			}
		}
		if nb > 0 {
			m.b.AddLE(sum, socp.Expr(float64(mem.Capacity)))
		}
	}
	return nil
}

// addObjective emits the weighted objective (5):
// Σ a(w)·β′(w) + Σ b(e)·ζ(e)·δ′(e).
func (m *model) addObjective() {
	for _, tg := range m.cfg.Graphs {
		for i := range tg.Tasks {
			w := &tg.Tasks[i]
			m.b.SetObjective(m.beta[w.Name], w.EffectiveBudgetWeight())
		}
		for i := range tg.Buffers {
			bf := &tg.Buffers[i]
			if _, fixed := m.fixedDeltas[bf.Name]; fixed {
				continue
			}
			m.b.SetObjective(m.delta[bf.Name],
				bf.EffectiveSizeWeight()*float64(bf.EffectiveContainerSize()))
		}
	}
}
