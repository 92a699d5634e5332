package core

import (
	"context"
	"time"

	"repro/internal/socp"
)

// The recovery ladder: a numerically degenerate instance that breaks the
// caller's solver configuration is retried with progressively more
// conservative ones before the failure is surfaced — a cold start when the
// first attempt was warm, escalated static regularization (the cheap fix
// that rescues most near-singular scalings, cf. ECOS's
// delta-regularization), then the simplicial factorization when the caller
// asked for the supernodal one. Every attempt is recorded in a SolveReport
// so operators can see which rung rescued a solve and how much it cost.

// kktRegEscalation multiplies the effective static regularization on the
// first retry (1e-13 default → 1e-9, the same order CVXOPT-style solvers
// use when a KKT system is found near-singular).
const kktRegEscalation = 1e4

// SolveAttempt records one rung of the recovery ladder.
type SolveAttempt struct {
	// Backend names the KKT factorization: "supernodal" (blocked sparse
	// LDLᵀ) or "sparse" (simplicial LDLᵀ).
	Backend string
	// KKTReg is the static regularization requested from the solver
	// (0 means the solver default).
	KKTReg float64
	// Warm reports that the attempt ran from a caller-supplied warm start.
	// Ladder rungs after the first warm attempt always run cold: a bad warm
	// start is itself a plausible cause of numerical failure, so dropping it
	// is the cheapest recovery of all and precedes any backend change.
	Warm bool
	// Status is the solver's outcome for this attempt.
	Status socp.Status
	// Err carries a hard solver error ("" when the solver returned a
	// status, which is the common case).
	Err string
	// Iterations is the interior-point iteration count of the attempt.
	Iterations int
	// LinearSolves is the attempt's number of factored KKT solves
	// (socp.Solution.LinearSolves).
	LinearSolves int
	// Duration is the attempt's wall-clock solve time. It is reporting
	// only: no retry or fallback decision depends on it.
	Duration time.Duration
}

// SolveReport is the structured record of a conic solve and its recovery
// attempts, attached to every Result.
type SolveReport struct {
	// Attempts lists every solver invocation in the order tried; the last
	// entry is the one whose outcome the Result reflects.
	Attempts []SolveAttempt
	// FinalBackend is the backend of the last attempt.
	FinalBackend string
	// Recovered reports that the solve needed the ladder: at least one
	// attempt failed numerically and a later, more conservative attempt
	// did not.
	Recovered bool
}

// backendName names the KKT factorization an Options selects for a problem
// whose reduced KKT system has dimension kktDim: "supernodal" only when the
// caller asked for it, "sparse" otherwise (FactorAuto resolves to the
// simplicial backend at every dimension).
func backendName(opt socp.Options, kktDim int) string {
	if socp.ResolveFactorization(opt.Factorization, kktDim) == socp.FactorSupernodal {
		return "supernodal"
	}
	return "sparse"
}

// ladder returns the solver configurations to try in order: the caller's
// own options first (so unfaulted solves are bit-identical to a direct
// socp.Solve), then — when the first attempt was warm-started — the same
// configuration from the cold start, then escalated regularization on the
// same backend, then — when the caller asked for the supernodal backend —
// the simplicial factorization with the escalated regularization. Every
// rung after the first runs cold: reusing a warm start that just failed
// would re-import the failure. kktDim resolves FactorAuto.
func ladder(opt socp.Options, kktDim int) []socp.Options {
	steps := []socp.Options{opt}
	if opt.WarmStart != nil {
		cold := opt
		cold.WarmStart = nil
		steps = append(steps, cold)
	}
	esc := opt
	esc.WarmStart = nil
	if esc.KKTReg == 0 {
		esc.KKTReg = 1e-13 // the solver's own default, made explicit to scale
	}
	esc.KKTReg *= kktRegEscalation
	steps = append(steps, esc)
	if socp.ResolveFactorization(opt.Factorization, kktDim) == socp.FactorSupernodal {
		sp := esc
		sp.Factorization = socp.FactorSparse
		steps = append(steps, sp)
	}
	return steps
}

// numericalFailure reports whether an attempt's outcome is the class of
// failure the ladder can recover from. Hard validation errors (nil
// solution), infeasibility certificates, iteration limits, and cancellation
// are all terminal: retrying with a different factorization cannot change
// them.
func numericalFailure(sol *socp.Solution, err error) bool {
	return sol != nil && sol.Status == socp.StatusNumericalError
}

// solveConic runs the cone program through the recovery ladder and reports
// every attempt. The returned solution and error are those of the last
// attempt made; the report is never nil.
func solveConic(ctx context.Context, prob *socp.Problem, opt socp.Options) (*socp.Solution, *SolveReport, error) {
	report := &SolveReport{}
	kktDim := len(prob.C)
	var sol *socp.Solution
	var err error
	for k, aopt := range ladder(opt, kktDim) {
		if k > 0 && ctx.Err() != nil {
			// Canceled between rungs: stop retrying, keep the report of the
			// attempts that did run. The last attempt's solution (a
			// numerical failure) stands.
			break
		}
		start := time.Now()
		sol, err = socp.SolveContext(ctx, prob, aopt)
		a := SolveAttempt{
			Backend:  backendName(aopt, kktDim),
			KKTReg:   aopt.KKTReg,
			Warm:     aopt.WarmStart != nil,
			Duration: time.Since(start),
		}
		if sol != nil {
			a.Status = sol.Status
			a.Iterations = sol.Iterations
			a.LinearSolves = sol.LinearSolves
		}
		if err != nil {
			a.Err = err.Error()
		}
		report.Attempts = append(report.Attempts, a)
		report.FinalBackend = a.Backend
		if !numericalFailure(sol, err) {
			report.Recovered = k > 0
			return sol, report, err
		}
	}
	return sol, report, err
}
