package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/taskgraph"
)

// TestBudgetFirstMinimalRateT1: on the unconstrained producer-consumer, the
// minimal-rate policy gives β = ϱχ/µ = 4 and the LP then needs γ = 10
// (the analytic bound: 2(40−4) + 2·10 = 92 ≤ 10d → d ≥ 9.2).
func TestBudgetFirstMinimalRateT1(t *testing.T) {
	r, err := TwoPhaseBudgetFirst(context.Background(), gen.PaperT1(0), BudgetMinimalRate, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != StatusOptimal {
		t.Fatalf("status %v", r.Status)
	}
	if !almostEqual(r.Mapping.Budgets["wa"], 4, 1e-9) {
		t.Fatalf("budget = %v, want 4", r.Mapping.Budgets["wa"])
	}
	if r.Mapping.Capacities["bab"] != 10 {
		t.Fatalf("capacity = %d, want 10", r.Mapping.Capacities["bab"])
	}
	if r.Verification == nil || !r.Verification.OK {
		t.Fatalf("verification failed: %+v", r.Verification)
	}
}

// TestBudgetFirstFairShareT1: fair share gives each task the whole
// processor (one task per processor), so buffers can be minimal.
func TestBudgetFirstFairShareT1(t *testing.T) {
	r, err := TwoPhaseBudgetFirst(context.Background(), gen.PaperT1(0), BudgetFairShare, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != StatusOptimal {
		t.Fatalf("status %v", r.Status)
	}
	if !almostEqual(r.Mapping.Budgets["wa"], 40, 1e-9) {
		t.Fatalf("fair-share budget = %v, want 40", r.Mapping.Budgets["wa"])
	}
	// With β = 40: cycle = 0+0+1+1 = 2 ≤ 10d → d = 1 suffices.
	if r.Mapping.Capacities["bab"] != 1 {
		t.Fatalf("capacity = %d, want 1", r.Mapping.Capacities["bab"])
	}
}

// TestBudgetFirstFalseNegative is the paper's core motivation: with the
// buffer capped at 4 containers, minimal-rate budgets (4 Mcycles) need 10
// containers → the two-phase flow fails, while the joint solve finds
// β*(4) ≈ 21.84 and succeeds.
func TestBudgetFirstFalseNegative(t *testing.T) {
	c := gen.PaperT1(4)
	twoPhase, err := TwoPhaseBudgetFirst(context.Background(), c, BudgetMinimalRate, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if twoPhase.Status != StatusInfeasible {
		t.Fatalf("two-phase status = %v, want infeasible (false negative)", twoPhase.Status)
	}
	joint := solveOK(t, c)
	if got := joint.Mapping.Budgets["wa"]; !almostEqual(got, betaStar(4), 1e-4) {
		t.Fatalf("joint budget = %v, want %v", got, betaStar(4))
	}
}

// TestFairShareFalseNegative: two tasks of the same graph share a processor
// with a third-party reservation, fair share hands each 20 − too little for
// the cycle at cap 1, while the joint solve balances asymmetrically... with
// symmetric tasks fair share equals the joint split, so instead overload
// shows as infeasible when the share drops below the rate minimum.
func TestFairShareRateInfeasible(t *testing.T) {
	c := gen.Chain(gen.ChainOptions{Tasks: 12, SharedProcessors: 1, Period: 10})
	// 12 tasks on one processor: fair share = 40/12 ≈ 3.33 < rate min 4.
	r, err := TwoPhaseBudgetFirst(context.Background(), c, BudgetFairShare, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", r.Status)
	}
}

// TestBufferFirstT1: fixing the buffer at d containers reproduces β*(d).
func TestBufferFirstT1(t *testing.T) {
	for _, d := range []int{1, 4, 10} {
		r, err := TwoPhaseBufferFirst(context.Background(), gen.PaperT1(0), map[string]int{"bab": d}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Status != StatusOptimal {
			t.Fatalf("d=%d: status %v", d, r.Status)
		}
		if got := r.Mapping.Budgets["wa"]; !almostEqual(got, betaStar(d), 1e-4) {
			t.Fatalf("d=%d: budget = %v, want %v", d, got, betaStar(d))
		}
		if r.Mapping.Capacities["bab"] != d {
			t.Fatalf("d=%d: capacity = %d", d, r.Mapping.Capacities["bab"])
		}
	}
}

// TestBufferFirstUsesMaxContainers: caps==nil takes capacities from the
// configuration's MaxContainers.
func TestBufferFirstUsesMaxContainers(t *testing.T) {
	r, err := TwoPhaseBufferFirst(context.Background(), gen.PaperT1(5), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != StatusOptimal || r.Mapping.Capacities["bab"] != 5 {
		t.Fatalf("status %v capacity %d", r.Status, r.Mapping.Capacities["bab"])
	}
	// Without MaxContainers and without caps it must error.
	if _, err := TwoPhaseBufferFirst(context.Background(), gen.PaperT1(0), nil, Options{}); err == nil {
		t.Fatal("missing capacities accepted")
	}
}

// TestBufferFirstMemoryFalseNegative: the memory fits only 12 containers,
// the per-buffer caps say 10 each. Fixing both buffers at 10 overflows the
// memory (false negative); the joint solve balances capacities and budgets.
func TestBufferFirstMemoryFalseNegative(t *testing.T) {
	c := gen.PaperT2(10)
	c.Memories[0].Capacity = 12
	bufferFirst, err := TwoPhaseBufferFirst(context.Background(), c, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bufferFirst.Status != StatusInfeasible {
		t.Fatalf("buffer-first status = %v, want infeasible", bufferFirst.Status)
	}
	// Budget-first also fails: minimal budgets need 10+10 containers.
	budgetFirst, err := TwoPhaseBudgetFirst(context.Background(), c, BudgetMinimalRate, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if budgetFirst.Status != StatusInfeasible {
		t.Fatalf("budget-first status = %v, want infeasible", budgetFirst.Status)
	}
	// The joint solve succeeds.
	joint := solveOK(t, c)
	if joint.Verification.MemoryUse["m1"] > 12 {
		t.Fatalf("joint overuses memory: %d", joint.Verification.MemoryUse["m1"])
	}
}

// TestBufferFirstRejectsBadCaps.
func TestBufferFirstRejectsBadCaps(t *testing.T) {
	c := gen.PaperT1(5)
	// Cap above MaxContainers.
	r, err := TwoPhaseBufferFirst(context.Background(), c, map[string]int{"bab": 9}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != StatusInfeasible {
		t.Fatalf("cap above MaxContainers: status %v", r.Status)
	}
	// Cap below initial tokens.
	c2 := gen.PaperT1(0)
	c2.Graphs[0].Buffers[0].InitialTokens = 4
	r2, err := TwoPhaseBufferFirst(context.Background(), c2, map[string]int{"bab": 3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Status != StatusInfeasible {
		t.Fatalf("cap below initial tokens: status %v", r2.Status)
	}
}

// TestJointNeverWorseThanTwoPhase: on instances where both succeed, the
// joint objective is no worse than either baseline's.
func TestJointNeverWorseThanTwoPhase(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		c := gen.RandomJobs(gen.RandomOptions{Seed: seed})
		joint, err := Solve(context.Background(), c, Options{})
		if err != nil || joint.Status != StatusOptimal {
			t.Fatalf("seed %d: joint failed: %v %v", seed, joint.Status, err)
		}
		bf, err := TwoPhaseBudgetFirst(context.Background(), c, BudgetMinimalRate, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// The joint continuous optimum is provably no worse than any rounded
		// two-phase mapping; the joint *rounded* mapping can exceed it by the
		// rounding slack (the paper's "cost of potential sub-optimality").
		if bf.Status == StatusOptimal && joint.ContinuousObjective > bf.Mapping.Objective+1e-4 {
			t.Fatalf("seed %d: joint relaxation %v worse than budget-first %v",
				seed, joint.ContinuousObjective, bf.Mapping.Objective)
		}
	}
}

// TestBudgetFirstInvalidConfig and policy errors.
func TestBaselineErrors(t *testing.T) {
	bad := gen.PaperT1(0)
	bad.Graphs = nil
	if _, err := TwoPhaseBudgetFirst(context.Background(), bad, BudgetMinimalRate, Options{}); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := TwoPhaseBufferFirst(context.Background(), bad, nil, Options{}); err == nil {
		t.Fatal("invalid config accepted (buffer first)")
	}
	if _, err := TwoPhaseBudgetFirst(context.Background(), gen.PaperT1(0), BudgetPolicy(9), Options{}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	_, err := TwoPhaseBudgetFirst(context.Background(), gen.RandomMultiRateChain(1, 3, 0), BudgetMinimalRate, Options{})
	if err == nil || !strings.Contains(err.Error(), "budget-first baseline") {
		t.Fatalf("multi-rate configuration: error %v, want one naming the budget-first baseline", err)
	}
	_ = taskgraph.DefaultGranularity
}

// TestBaselinesRelaxOnlyWhatTheySolve pins the Result of each flow: a
// relaxed-value map is nil for what the flow fixed before its one cone
// solve, the fixed values enter the mapping unrounded, and a flow that
// stops before the solver has no Report.
func TestBaselinesRelaxOnlyWhatTheySolve(t *testing.T) {
	ctx := context.Background()
	bud, err := TwoPhaseBudgetFirst(ctx, gen.PaperT1(0), BudgetMinimalRate, Options{})
	if err != nil || bud.Status != StatusOptimal {
		t.Fatalf("budget-first: %v %v", bud.Status, err)
	}
	if bud.Report == nil || bud.ContinuousBudgets != nil || len(bud.ContinuousDeltas) != 1 {
		t.Fatalf("budget-first: report %v, relaxed budgets %v, relaxed deltas %v",
			bud.Report, bud.ContinuousBudgets, bud.ContinuousDeltas)
	}
	if got := bud.Mapping.Budgets["wb"]; got != 4 {
		t.Fatalf("budget-first: budget %v, want the phase-1 budget 4", got)
	}
	buf, err := TwoPhaseBufferFirst(ctx, gen.PaperT1(0), map[string]int{"bab": 4}, Options{})
	if err != nil || buf.Status != StatusOptimal {
		t.Fatalf("buffer-first: %v %v", buf.Status, err)
	}
	if buf.Report == nil || buf.ContinuousDeltas != nil || len(buf.ContinuousBudgets) != 2 {
		t.Fatalf("buffer-first: report %v, relaxed budgets %v, relaxed deltas %v",
			buf.Report, buf.ContinuousBudgets, buf.ContinuousDeltas)
	}
	if got := buf.Mapping.Capacities["bab"]; got != 4 {
		t.Fatalf("buffer-first: capacity %d, want the phase-1 capacity 4", got)
	}
	// Twelve tasks on one processor: phase 1 rejects fair-share budgets.
	c := gen.Chain(gen.ChainOptions{Tasks: 12, SharedProcessors: 1, Period: 10})
	rej, err := TwoPhaseBudgetFirst(ctx, c, BudgetFairShare, Options{})
	if err != nil || rej.Status != StatusInfeasible || rej.Report != nil {
		t.Fatalf("phase-1 rejection: status %v, report %v, err %v", rej.Status, rej.Report, err)
	}
}

// TestBudgetFirstHonorsLatency: phase 2 is Algorithm 1 with fixed budgets,
// latency rows included. On T1 the rate-minimal budgets (4 Mcycles) give
// wa→wb a latency of (40−4) + 10 + (40−4) + 10 = 92 in any schedule, so a
// tighter bound is infeasible in phase 2 rather than a mapping that fails
// verification, and a looser one yields a verified mapping.
func TestBudgetFirstHonorsLatency(t *testing.T) {
	for _, tc := range []struct {
		bound float64
		want  Status
	}{{60, StatusInfeasible}, {91, StatusInfeasible}, {93, StatusOptimal}} {
		c := gen.PaperT1(0)
		c.Graphs[0].Latencies = []taskgraph.LatencyConstraint{{From: "wa", To: "wb", Bound: tc.bound}}
		r, err := TwoPhaseBudgetFirst(context.Background(), c, BudgetMinimalRate, Options{})
		if err != nil {
			t.Fatalf("bound %v: %v", tc.bound, err)
		}
		if r.Status != tc.want {
			t.Fatalf("bound %v: status %v, want %v", tc.bound, r.Status, tc.want)
		}
		if r.Status == StatusOptimal && (r.Verification == nil || !r.Verification.OK) {
			t.Fatalf("bound %v: verification %+v", tc.bound, r.Verification)
		}
	}
}
