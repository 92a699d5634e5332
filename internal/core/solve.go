package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/dfmodel"
	"repro/internal/socp"
	"repro/internal/taskgraph"
)

// roundTol absorbs interior-point noise before ceiling operations, so a
// relaxed value of 4.0000000003 rounds to 4 granules rather than 5.
const roundTol = 1e-6

// BuildProblem translates a configuration into its Algorithm 1 cone program
// without solving it. It is exposed for benchmarks and diagnostics that need
// the raw SOCP — e.g. pitting factorization backends against each other on
// paper-sized KKT systems.
func BuildProblem(c *taskgraph.Config) (*socp.Problem, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	_, prob, err := buildProblem(c)
	return prob, err
}

// buildProblem builds the Algorithm 1 model of a validated configuration
// and its cone program.
func buildProblem(c *taskgraph.Config) (*model, *socp.Problem, error) {
	m, err := buildModel(c, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	prob, err := m.b.Build()
	if err != nil {
		return nil, nil, err
	}
	return m, prob, nil
}

// Solve computes budgets and buffer capacities for every task graph in the
// configuration simultaneously (Algorithm 1) and verifies the result.
//
// The context bounds the solve: cancellation or deadline expiry is observed
// once per interior-point iteration and surfaces as StatusCanceled. A solve
// that fails numerically is retried through the recovery ladder (escalated
// regularization, then the simplicial factorization when the caller asked
// for the supernodal one); every attempt is recorded in Result.Report. On
// instances that do not need recovery, the result is identical to a single
// direct solver call.
func Solve(ctx context.Context, c *taskgraph.Config, opt Options) (*Result, error) {
	// One solve chains no warm start: NoWarmStart spares solveWarm the copy
	// of the optimum that nothing would read.
	opt.NoWarmStart = true
	res, _, err := buildSolve(ctx, c, opt, nil)
	return res, err
}

// buildSolve validates c, builds its cone program and solves it from warm.
func buildSolve(ctx context.Context, c *taskgraph.Config, opt Options, warm *socp.WarmStart) (*Result, *socp.WarmStart, error) {
	if err := c.Validate(); err != nil {
		return nil, nil, err
	}
	m, prob, err := buildProblem(c)
	if err != nil {
		return nil, nil, err
	}
	return solveWarm(ctx, c, m, prob, opt, warm)
}

// solveHook, when non-nil, sees every configuration and cone program
// solveWarm is about to solve. Tests set it to check what the sweeps solve.
var solveHook func(c *taskgraph.Config, prob *socp.Problem)

// solveWarm solves prob, the cone program of the validated configuration c
// built as m, then rounds and verifies the result. warm (which may be nil,
// the cold start) seeds the solver's initial iterate, and the second return
// value is the raw interior point of this solve's optimum for seeding the
// next neighboring solve — nil when the solve did not end in a reusable
// point or warm starts are disabled. Solve builds and then calls it once;
// the sweep drivers build once per call and chain their points' solves
// through it (see capFamily), and the two-phase baselines call it once on
// a model whose budgets or capacities their phase 1 fixed.
func solveWarm(ctx context.Context, c *taskgraph.Config, m *model, prob *socp.Problem, opt Options, warm *socp.WarmStart) (*Result, *socp.WarmStart, error) {
	if solveHook != nil {
		solveHook(c, prob)
	}
	sopt := opt.Solver
	if warm != nil && !opt.NoWarmStart {
		sopt.WarmStart = warm
	}
	sol, report, err := solveConic(ctx, prob, sopt)
	res := &Result{Report: report}
	if err != nil {
		res.Status = StatusError
		if sol != nil {
			res.SolverStatus = sol.Status
			res.SolverIterations = sol.Iterations
		}
		return res, nil, err
	}
	res.SolverStatus = sol.Status
	res.SolverIterations = sol.Iterations
	var warmOut *socp.WarmStart
	switch sol.Status {
	case socp.StatusOptimal:
		if !opt.NoWarmStart {
			// The successor's seed is this optimum's own X/S/Z, not a copy:
			// the solver detached them from its pooled space, the next
			// solve only reads a warm start (scaleWarm copies it into its
			// own iterates), and the rounding below only reads X, so no
			// one writes these vectors again.
			warmOut = &socp.WarmStart{X: sol.X, S: sol.S, Z: sol.Z}
		}
	case socp.StatusPrimalInfeasible:
		res.Status = StatusInfeasible
		return res, nil, nil
	case socp.StatusCanceled:
		res.Status = StatusCanceled
		return res, nil, nil
	default:
		res.Status = StatusError
		return res, nil, nil
	}

	// Round what the model relaxed; what it fixed enters the mapping as is.
	res.ContinuousObjective = sol.PrimalObj
	mapping := &taskgraph.Mapping{Budgets: m.budgets, Capacities: m.caps}
	if m.budgets == nil {
		res.ContinuousBudgets = map[string]float64{}
		mapping.Budgets = map[string]float64{}
		g := c.EffectiveGranularity()
		for _, tg := range c.Graphs {
			for i := range tg.Tasks {
				w := &tg.Tasks[i]
				bp := sol.X[m.beta[w.Name]]
				res.ContinuousBudgets[w.Name] = bp
				// β = g·⌈β′/g⌉ (conservative: Constraint (9) pre-paid +g).
				mapping.Budgets[w.Name] = g * math.Ceil(bp/g-roundTol)
			}
		}
	}
	if m.caps == nil {
		res.ContinuousDeltas = map[string]float64{}
		mapping.Capacities = map[string]int{}
		for _, tg := range c.Graphs {
			for i := range tg.Buffers {
				bf := &tg.Buffers[i]
				dp := sol.X[m.delta[bf.Name]]
				res.ContinuousDeltas[bf.Name] = dp
				// γ = ι + ⌈δ′⌉, at least one container (γ: B → N*).
				gamma := bf.InitialTokens + int(math.Ceil(dp-roundTol))
				if gamma < 1 {
					gamma = 1
				}
				if bf.MinContainers > 0 && gamma < bf.MinContainers {
					gamma = bf.MinContainers
				}
				mapping.Capacities[bf.Name] = gamma
			}
		}
	}
	mapping.Objective = objective(c, mapping)
	res.Mapping = mapping
	res.Status = StatusOptimal

	if !opt.SkipVerification {
		v, err := dfmodel.VerifyValidated(c, mapping)
		if err != nil {
			return nil, nil, err
		}
		res.Verification = v
		if !v.OK {
			// Should be unreachable given the conservative rounding; if it
			// happens it is a bug worth surfacing loudly.
			res.Status = StatusError
			return res, nil, fmt.Errorf("core: rounded mapping failed verification: %v", v.Problems)
		}
	}
	return res, warmOut, nil
}

// objective evaluates the paper's weighted cost (5) on a rounded mapping,
// counting full buffer capacities γ·ζ (the δ′ formulation differs only by
// the constant ι terms).
func objective(c *taskgraph.Config, m *taskgraph.Mapping) float64 {
	var obj float64
	for _, tg := range c.Graphs {
		for i := range tg.Tasks {
			w := &tg.Tasks[i]
			obj += w.EffectiveBudgetWeight() * m.Budgets[w.Name]
		}
		for i := range tg.Buffers {
			bf := &tg.Buffers[i]
			obj += bf.EffectiveSizeWeight() * float64(bf.EffectiveContainerSize()) *
				float64(m.Capacities[bf.Name])
		}
	}
	return obj
}
