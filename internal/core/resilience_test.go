package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/gen"
	"repro/internal/socp"
)

// Every degradation path of the resilient pipeline is exercised here by
// injecting the fault that triggers it: each rung of the recovery ladder,
// the NaN-RHS breakdown, cancellation before and during the interior-point
// loop, and sweep workers that panic or stall.

func ladderSolve(t *testing.T, opt Options) *Result {
	t.Helper()
	res, err := Solve(context.Background(), gen.PaperT1(3), opt)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v, want optimal", res.Status)
	}
	return res
}

func TestLadderEscalatedRegRecovers(t *testing.T) {
	// Break exactly the first sparse factorization: attempt 1 dies in the
	// initial point, attempt 2 (same backend, escalated KKTReg) succeeds.
	defer faultinject.Activate(faultinject.Rule{
		Site: faultinject.SiteSparseLDLT, Kind: faultinject.KindError, Count: 1,
	})()
	res := ladderSolve(t, Options{})
	rep := res.Report
	if rep == nil || len(rep.Attempts) != 2 {
		t.Fatalf("report = %+v, want 2 attempts", rep)
	}
	if rep.Attempts[0].Status != socp.StatusNumericalError {
		t.Fatalf("attempt 0 status = %v, want numerical error", rep.Attempts[0].Status)
	}
	if !strings.Contains(rep.Attempts[0].Err, "injected fault") {
		t.Fatalf("attempt 0 err = %q, want the injected fault", rep.Attempts[0].Err)
	}
	if rep.Attempts[1].Status != socp.StatusOptimal || rep.Attempts[1].Backend != "sparse" {
		t.Fatalf("attempt 1 = %+v, want optimal on sparse", rep.Attempts[1])
	}
	if want := 1e-13 * kktRegEscalation; rep.Attempts[1].KKTReg != want {
		t.Fatalf("attempt 1 KKTReg = %v, want %v", rep.Attempts[1].KKTReg, want)
	}
	if !rep.Recovered || rep.FinalBackend != "sparse" {
		t.Fatalf("report = %+v, want recovered on sparse", rep)
	}
}

func TestLadderFallsBackToSimplicial(t *testing.T) {
	// Supernodal factorization broken for good: the caller's supernodal
	// attempt and its escalated-regularization retry both fail, and the
	// simplicial rung rescues the solve.
	defer faultinject.Activate(faultinject.Rule{
		Site: faultinject.SiteSupernodalPanel, Kind: faultinject.KindError,
	})()
	res := ladderSolve(t, Options{Solver: socp.Options{Factorization: socp.FactorSupernodal}})
	rep := res.Report
	if rep == nil || len(rep.Attempts) != 3 {
		t.Fatalf("report = %+v, want 3 attempts", rep)
	}
	for k := 0; k < 2; k++ {
		if rep.Attempts[k].Status != socp.StatusNumericalError || rep.Attempts[k].Backend != "supernodal" {
			t.Fatalf("attempt %d = %+v, want supernodal numerical error", k, rep.Attempts[k])
		}
	}
	want := 1e-13 * kktRegEscalation
	if rep.Attempts[1].KKTReg != want || rep.Attempts[2].KKTReg != want {
		t.Fatalf("attempts 1, 2 KKTReg = %v, %v, want %v", rep.Attempts[1].KKTReg, rep.Attempts[2].KKTReg, want)
	}
	if rep.Attempts[2].Status != socp.StatusOptimal || rep.Attempts[2].Backend != "sparse" {
		t.Fatalf("attempt 2 = %+v, want optimal on sparse", rep.Attempts[2])
	}
	if !rep.Recovered || rep.FinalBackend != "sparse" {
		t.Fatalf("report = %+v, want recovered on sparse", rep)
	}
}

func TestDefaultSolveRunsSimplicial(t *testing.T) {
	// chain-380's KKT system is past the 768 rows where auto once switched
	// to the supernodal backend. A default solve now runs the simplicial
	// one, and its ladder has no simplicial rung to fall back to.
	cfg := gen.Chain(gen.ChainOptions{Tasks: 380})
	p, err := BuildProblem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dim := len(p.C); dim < 768 {
		t.Fatalf("chain-380 has %d variables, want at least 768", dim)
	}
	if steps := ladder(socp.Options{}, len(p.C)); len(steps) != 2 {
		t.Fatalf("default ladder has %d rungs, want 2 (the caller's options and escalated KKTReg)", len(steps))
	}
	if steps := ladder(socp.Options{Factorization: socp.FactorSupernodal}, len(p.C)); len(steps) != 3 ||
		steps[2].Factorization != socp.FactorSparse {
		t.Fatalf("supernodal ladder = %+v, want a third, simplicial rung", steps)
	}
	res, err := Solve(context.Background(), cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if res.Status != StatusOptimal || rep == nil || len(rep.Attempts) != 1 {
		t.Fatalf("status %v, report %+v: want one optimal attempt", res.Status, rep)
	}
	if rep.FinalBackend != "sparse" || rep.Attempts[0].Backend != "sparse" || rep.Recovered {
		t.Fatalf("report = %+v, want an unrecovered solve on sparse", rep)
	}
}

func TestLadderColdRetryRecovers(t *testing.T) {
	// A warm-started solve whose first factorization breaks: the ladder's
	// first retry drops the warm start and keeps everything else — the
	// backend and the caller's own regularization.
	_, warm, err := solveWarm(context.Background(), gen.PaperT1(3), Options{}, nil)
	if err != nil || warm == nil {
		t.Fatalf("seed solve: warm %v err %v", warm, err)
	}
	defer faultinject.Activate(faultinject.Rule{
		Site: faultinject.SiteSparseLDLT, Kind: faultinject.KindError, Count: 1,
	})()
	res, _, err := solveWarm(context.Background(), gen.PaperT1(4), Options{}, warm)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v, want optimal", res.Status)
	}
	rep := res.Report
	if rep == nil || len(rep.Attempts) != 2 {
		t.Fatalf("report = %+v, want 2 attempts", rep)
	}
	if a := rep.Attempts[0]; !a.Warm || a.Status != socp.StatusNumericalError {
		t.Fatalf("attempt 0 = %+v, want a warm numerical error", a)
	}
	if a := rep.Attempts[1]; a.Warm || a.KKTReg != 0 || a.Backend != "sparse" || a.Status != socp.StatusOptimal {
		t.Fatalf("attempt 1 = %+v, want optimal cold retry on sparse at the default KKTReg", a)
	}
	if !rep.Recovered || rep.FinalBackend != "sparse" {
		t.Fatalf("report = %+v, want recovered on sparse", rep)
	}
}

func TestLadderRecoversFromNaNRHS(t *testing.T) {
	// Poison the KKT right-hand side of the first factored solve with NaNs:
	// the iteration collapses numerically and the retry (with the injection
	// spent) succeeds.
	defer faultinject.Activate(faultinject.Rule{
		Site: faultinject.SiteKKTRHS, Kind: faultinject.KindNaN, Count: 1,
	})()
	res := ladderSolve(t, Options{})
	rep := res.Report
	if rep == nil || len(rep.Attempts) < 2 {
		t.Fatalf("report = %+v, want at least 2 attempts", rep)
	}
	if rep.Attempts[0].Status != socp.StatusNumericalError {
		t.Fatalf("attempt 0 status = %v, want numerical error", rep.Attempts[0].Status)
	}
	if last := rep.Attempts[len(rep.Attempts)-1]; last.Status != socp.StatusOptimal {
		t.Fatalf("final attempt = %+v, want optimal", last)
	}
	if !rep.Recovered {
		t.Fatalf("report = %+v, want recovered", rep)
	}
}

func TestSolvePreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Solve(ctx, gen.PaperT1(3), Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Status != StatusCanceled || res.SolverStatus != socp.StatusCanceled {
		t.Fatalf("status = %v (solver %v), want canceled", res.Status, res.SolverStatus)
	}
	if res.Report == nil || len(res.Report.Attempts) != 1 || res.Report.Recovered {
		t.Fatalf("report = %+v, want one unrecovered attempt", res.Report)
	}
}

func TestCancelDuringIPMIterationYieldsCanceled(t *testing.T) {
	// Stall the solver at the top of its second interior-point iteration,
	// cancel while it is parked there, release it, and require a prompt
	// StatusCanceled — not a misleading StatusMaxIterations after burning
	// the full iteration allowance against a dead context.
	gate := make(chan struct{})
	stalled := make(chan struct{})
	defer faultinject.Activate(faultinject.Rule{
		Site: faultinject.SiteIPMIteration, Kind: faultinject.KindStall,
		After: 1, Count: 1, Gate: gate, Stalled: stalled,
	})()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := Solve(ctx, gen.PaperT1(3), Options{})
		done <- outcome{res, err}
	}()
	<-stalled
	cancel()
	close(gate)
	out := <-done
	if out.err != nil {
		t.Fatalf("Solve: %v", out.err)
	}
	if out.res.Status != StatusCanceled || out.res.SolverStatus != socp.StatusCanceled {
		t.Fatalf("status = %v (solver %v), want canceled", out.res.Status, out.res.SolverStatus)
	}
}

func TestRunSweepPanicIsolation(t *testing.T) {
	// Job 2 panics (via the injected fault); every other job completes and
	// the panic surfaces as an indexed error carrying the captured stack.
	defer faultinject.Activate(faultinject.Rule{
		Site: faultinject.SiteSweepJob(2), Kind: faultinject.KindPanic,
	})()
	const n = 6
	for _, par := range []int{1, 3} {
		results, err := RunSweep(context.Background(), n, par, func(ctx context.Context, i int) (int, error) {
			return i + 1, nil
		})
		var pe *JobPanicError
		if !errors.As(err, &pe) {
			t.Fatalf("parallelism %d: err = %v, want a JobPanicError", par, err)
		}
		if pe.Index != 2 || len(pe.Stack) == 0 {
			t.Fatalf("parallelism %d: panic error = index %d, %d stack bytes", par, pe.Index, len(pe.Stack))
		}
		if !strings.Contains(err.Error(), "forced panic") {
			t.Fatalf("parallelism %d: err %q does not carry the panic value", par, err)
		}
		for i, v := range results {
			want := i + 1
			if i == 2 {
				want = 0 // the panicking job's slot stays zero
			}
			if v != want {
				t.Fatalf("parallelism %d: results[%d] = %d, want %d", par, i, v, want)
			}
		}
	}
}

func TestRunSweepMidCancelKeepsPartialResults(t *testing.T) {
	// Stall job 3, cancel mid-sweep, release: the sweep returns promptly
	// with every job dispatched before the cancellation completed and the
	// context error in the aggregate.
	gate := make(chan struct{})
	stalled := make(chan struct{})
	defer faultinject.Activate(faultinject.Rule{
		Site: faultinject.SiteSweepJob(3), Kind: faultinject.KindStall,
		Gate: gate, Stalled: stalled,
	})()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type outcome struct {
		results []int
		err     error
	}
	done := make(chan outcome, 1)
	go func() {
		results, err := RunSweep(ctx, 8, 2, func(ctx context.Context, i int) (int, error) {
			return i + 1, nil
		})
		done <- outcome{results, err}
	}()
	<-stalled
	cancel()
	close(gate)
	out := <-done
	if !errors.Is(out.err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the aggregate", out.err)
	}
	if len(out.results) != 8 {
		t.Fatalf("got %d result slots, want 8 (partial results surfaced)", len(out.results))
	}
	// Job 3 was dispatched (it stalled), so jobs 0–3 were all dispatched
	// before the cancellation and must have completed.
	for i := 0; i <= 3; i++ {
		if out.results[i] != i+1 {
			t.Fatalf("results[%d] = %d, want %d", i, out.results[i], i+1)
		}
	}
}

// TestSolveUnfaultedMatchesDirectSolver is the acceptance criterion that the
// ladder is invisible on healthy inputs: one attempt, no recovery, and the
// relaxed optimum bit-identical to a direct call into the cone solver with
// the same options.
func TestSolveUnfaultedMatchesDirectSolver(t *testing.T) {
	cfg := gen.PaperT1(3)
	res := ladderSolve(t, Options{})
	rep := res.Report
	if rep == nil || len(rep.Attempts) != 1 || rep.Recovered {
		t.Fatalf("report = %+v, want exactly one unrecovered attempt", rep)
	}
	prob, err := BuildProblem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := socp.Solve(prob, socp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(res.ContinuousObjective) != math.Float64bits(sol.PrimalObj) {
		t.Fatalf("objective %v differs from direct solver's %v", res.ContinuousObjective, sol.PrimalObj)
	}
	if a := rep.Attempts[0]; a.LinearSolves != sol.LinearSolves || a.Iterations != sol.Iterations {
		t.Fatalf("attempt reports %d iterations and %d linear solves, direct solver %d and %d",
			a.Iterations, a.LinearSolves, sol.Iterations, sol.LinearSolves)
	}
}

// TestLinearSolvesPerKKTSolve bounds the iterative refinement of a cold
// chain-100 solve. The solve makes two KKT solves for its starting point and
// two per iteration, each one factored solve plus one per refinement
// correction. Refinement that stops once the residual reaches working
// accuracy averages fewer than three factored solves per KKT solve here;
// refining until the residual stops falling takes 3.6–4.
func TestLinearSolvesPerKKTSolve(t *testing.T) {
	res, err := Solve(context.Background(), gen.Chain(gen.ChainOptions{Tasks: 100}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal || len(res.Report.Attempts) != 1 {
		t.Fatalf("status %v after %d attempts, want optimal after 1", res.Status, len(res.Report.Attempts))
	}
	a := res.Report.Attempts[0]
	kktSolves := 2*a.Iterations + 2
	if a.LinearSolves < kktSolves || a.LinearSolves > 3*kktSolves {
		t.Fatalf("%d linear solves for %d KKT solves (%d iterations), want between 1 and 3 per KKT solve",
			a.LinearSolves, kktSolves, a.Iterations)
	}
}

// TestNumericalExitFallsBackToBestIterate breaks one factorization of a
// chain-100 solve. A fault in the last iteration's factorization leaves a
// best iterate that meets the reduced tolerances, and the solver reports it
// optimal in the first attempt; a fault in the first iteration's leaves
// only the starting point, so the attempt is a numerical error and the
// ladder retries.
func TestNumericalExitFallsBackToBestIterate(t *testing.T) {
	cfg := gen.Chain(gen.ChainOptions{Tasks: 100})
	clean, err := Solve(context.Background(), cfg, Options{})
	if err != nil || clean.Status != StatusOptimal {
		t.Fatalf("clean solve: status %v err %v", clean.Status, err)
	}
	// Factorization hit 0 is the starting point's (W = I), hit k the one of
	// iteration k−1; a clean solve of n iterations factors n+1 times.
	n := clean.SolverIterations
	faulted := func(hit int) *Result {
		t.Helper()
		defer faultinject.Activate(faultinject.Rule{
			Site: faultinject.SiteSparseLDLT, Kind: faultinject.KindError, After: hit, Count: 1,
		})()
		res, err := Solve(context.Background(), cfg, Options{})
		if err != nil {
			t.Fatalf("fault at hit %d: %v", hit, err)
		}
		if res.Status != StatusOptimal {
			t.Fatalf("fault at hit %d: status %v, want optimal", hit, res.Status)
		}
		return res
	}

	late := faulted(n)
	if a := late.Report.Attempts; len(a) != 1 || a[0].Status != socp.StatusOptimal {
		t.Fatalf("late fault: attempts %+v, want one optimal attempt", a)
	}
	if late.SolverIterations != n-1 {
		t.Fatalf("late fault: reported iterate %d, want the best one, %d", late.SolverIterations, n-1)
	}
	t.Logf("clean objective %.9g, late-fault objective %.9g", clean.ContinuousObjective, late.ContinuousObjective)

	early := faulted(1)
	a := early.Report.Attempts
	if len(a) != 2 || a[0].Status != socp.StatusNumericalError || a[1].Status != socp.StatusOptimal {
		t.Fatalf("early fault: attempts %+v, want a numerical error then an optimal retry", a)
	}
	if a[0].Iterations != 0 {
		t.Fatalf("early fault: attempt 0 stopped at iteration %d, want 0", a[0].Iterations)
	}
}

// TestIterationsCountPasses: a solve that ends on an earlier, better iterate
// still reports every pass it ran, in socp.Solution.Iterations and in the
// ladder's SolveAttempt. The paper's T1 at cap 5 ends that way. Its trace
// prints one line per pass, iteration 0 included.
func TestIterationsCountPasses(t *testing.T) {
	c := gen.PaperT1(5)
	p, err := BuildProblem(c)
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	sol, err := socp.Solve(p, socp.Options{Trace: true, TraceOut: &trace})
	if err != nil || sol.Status != socp.StatusOptimal {
		t.Fatalf("solve: %v %v", sol.Status, err)
	}
	passes := strings.Count(trace.String(), "\n") - 1
	if sol.Iterations != passes {
		t.Fatalf("Iterations = %d, trace shows %d passes", sol.Iterations, passes)
	}
	r, err := Solve(context.Background(), c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Report.Attempts[0].Iterations; got != passes || r.SolverIterations != passes {
		t.Fatalf("attempt reports %d iterations, result %d, trace %d passes", got, r.SolverIterations, passes)
	}
}
