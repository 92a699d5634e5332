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
	m, err := buildModel(c, nil)
	if err != nil {
		return nil, err
	}
	return m.b.Build()
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
	res, _, err := solveWarm(ctx, c, opt, nil)
	return res, err
}

// solveWarm is Solve plus warm-start threading: warm (which may be nil, the
// cold start) seeds the solver's initial iterate, and the second return
// value is the raw interior point of this solve's optimum for seeding the
// next neighboring solve — nil when the solve did not end in a reusable
// point or warm starts are disabled. The sweep drivers chain solves through
// it; Solve itself is solveWarm with both sides cold.
func solveWarm(ctx context.Context, c *taskgraph.Config, opt Options, warm *socp.WarmStart) (*Result, *socp.WarmStart, error) {
	m, err := buildModel(c, nil)
	if err != nil {
		return nil, nil, err
	}
	prob, err := m.b.Build()
	if err != nil {
		return nil, nil, err
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
	var warmOut *socp.WarmStart
	if !opt.NoWarmStart {
		warmOut = sol.Warm()
	}
	res.SolverStatus = sol.Status
	res.SolverIterations = sol.Iterations
	switch sol.Status {
	case socp.StatusOptimal:
		// proceed
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

	res.ContinuousObjective = sol.PrimalObj
	res.ContinuousBudgets = map[string]float64{}
	res.ContinuousDeltas = map[string]float64{}
	mapping := &taskgraph.Mapping{
		Budgets:    map[string]float64{},
		Capacities: map[string]int{},
	}
	g := c.EffectiveGranularity()
	for _, tg := range c.Graphs {
		for i := range tg.Tasks {
			w := &tg.Tasks[i]
			bp := sol.X[m.beta[w.Name]]
			res.ContinuousBudgets[w.Name] = bp
			// β = g·⌈β′/g⌉ (conservative: Constraint (9) pre-paid +g).
			mapping.Budgets[w.Name] = g * math.Ceil(bp/g-roundTol)
		}
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
	mapping.Objective = objective(c, mapping)
	res.Mapping = mapping
	res.Status = StatusOptimal

	if !opt.SkipVerification {
		v, err := dfmodel.Verify(c, mapping)
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
