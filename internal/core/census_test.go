package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/socp"
	"repro/internal/taskgraph"
)

// censusJobs is the parameterization of the multi-job instances in the
// ladder census: every knob of gen.RandomJobs varies with the seed.
func censusJobs(seed int64) *taskgraph.Config {
	return gen.RandomJobs(gen.RandomOptions{
		Seed:       seed,
		Jobs:       int(1 + seed%8),
		MinTasks:   2,
		MaxTasks:   int(3 + seed%10),
		Processors: int(2 + seed%7),
		LoadFactor: 0.2 + 0.1*float64(seed%6),
	})
}

// TestLadderCensus pins the evidence the recovery ladder is sized by: on a
// fixed gen corpus with no faults injected, every solve finishes in exactly
// one attempt. The corpus is cold multi-job solves plus warm, pattern-cached
// sweeps over buffer caps 1..30, whose points cover infeasible caps, the
// optimal ones, and (seeds 19 and 58) points on the feasibility boundary
// that end at the iteration limit — a terminal status the ladder does not
// retry. No solve here reaches a second rung: the later rungs exist for
// injected faults and real numerical breakdowns, not for this corpus.
func TestLadderCensus(t *testing.T) {
	ctx := context.Background()
	solves := 0
	statuses := map[socp.Status]int{}
	check := func(name string, res *Result) {
		t.Helper()
		solves++
		if res == nil || res.Report == nil {
			t.Fatalf("%s: no solve report", name)
		}
		statuses[res.SolverStatus]++
		if n := len(res.Report.Attempts); n != 1 {
			t.Fatalf("%s: %d attempts, want 1: %+v", name, n, res.Report.Attempts)
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		name := fmt.Sprintf("random%d", seed)
		res, err := Solve(ctx, censusJobs(seed), Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check(name, res)
	}
	caps := make([]int, 30)
	for i := range caps {
		caps[i] = i + 1
	}
	for _, sw := range []struct {
		name string
		cfg  *taskgraph.Config
	}{
		{"T1", gen.PaperT1(0)},
		{"T2", gen.PaperT2(0)},
		{"random19", censusJobs(19)},
		{"random58", censusJobs(58)},
		{"random7", censusJobs(7)},
	} {
		points, err := SweepBufferCaps(ctx, sw.cfg, nil, caps, Options{})
		if err != nil {
			t.Fatalf("%s sweep: %v", sw.name, err)
		}
		for _, p := range points {
			check(fmt.Sprintf("%s cap %d", sw.name, p.Cap), p.Result)
		}
	}
	if want := 20 + 5*len(caps); solves != want {
		t.Fatalf("census covered %d solves, want %d", solves, want)
	}
	for _, st := range []socp.Status{socp.StatusOptimal, socp.StatusPrimalInfeasible, socp.StatusMaxIterations} {
		if statuses[st] == 0 {
			t.Fatalf("census has no %v solve (statuses %v)", st, statuses)
		}
	}
}
