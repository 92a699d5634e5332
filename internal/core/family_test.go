package core

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/socp"
	"repro/internal/taskgraph"
)

// solvedPoint is one configuration and cone program seen by solveHook.
type solvedPoint struct {
	cfg  *taskgraph.Config
	prob *socp.Problem
}

// recordSolves runs fn with solveHook recording every problem it solves.
func recordSolves(t *testing.T, fn func()) []solvedPoint {
	t.Helper()
	var mu sync.Mutex
	var pts []solvedPoint
	solveHook = func(c *taskgraph.Config, prob *socp.Problem) {
		mu.Lock()
		pts = append(pts, solvedPoint{c, prob})
		mu.Unlock()
	}
	defer func() { solveHook = nil }()
	fn()
	return pts
}

// equalBits reports whether a and b hold the same float64 bit patterns.
func equalBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// checkFamily checks that every point solved the problem BuildProblem
// gives for its own configuration, bit for bit, and that all points of
// the call share one build (one constraint matrix).
func checkFamily(t *testing.T, name string, pts []solvedPoint, want int) {
	t.Helper()
	if len(pts) != want {
		t.Fatalf("%s: %d solves, want %d", name, len(pts), want)
	}
	for i, pt := range pts {
		ref, err := BuildProblem(pt.cfg)
		if err != nil {
			t.Fatalf("%s point %d: %v", name, i, err)
		}
		p := pt.prob
		if p.GSparse != pts[0].prob.GSparse || &p.C[0] != &pts[0].prob.C[0] {
			t.Fatalf("%s point %d: cone program built again", name, i)
		}
		g, rg := p.GSparse, ref.GSparse
		switch {
		case !equalBits(p.C, ref.C):
			t.Fatalf("%s point %d: c differs from BuildProblem", name, i)
		case !equalBits(p.H, ref.H):
			t.Fatalf("%s point %d: h differs from BuildProblem", name, i)
		case g.Rows != rg.Rows || g.Cols != rg.Cols || !slices.Equal(g.RowPtr, rg.RowPtr) ||
			!slices.Equal(g.ColIdx, rg.ColIdx) || !equalBits(g.Val, rg.Val):
			t.Fatalf("%s point %d: G differs from BuildProblem", name, i)
		case p.Dims.NonNeg != ref.Dims.NonNeg || !slices.Equal(p.Dims.SOC, ref.Dims.SOC):
			t.Fatalf("%s point %d: cone dims differ from BuildProblem", name, i)
		}
	}
}

// TestSweepPointsSolveTheirOwnProblem: the sweeps and the DSE probes build
// Algorithm 1 once per call and only rewrite each point's cap rows of h,
// so every point must solve exactly BuildProblem of its configuration. The
// sweeps run at Parallelism 2, so under -race this also shows that the
// shared c and G are only read.
func TestSweepPointsSolveTheirOwnProblem(t *testing.T) {
	ctx := context.Background()
	opt := Options{Parallelism: 2, SkipVerification: true}
	chain := gen.Chain(gen.ChainOptions{Tasks: 100})
	sweeps := []struct {
		name string
		cfg  *taskgraph.Config
		lo   int
		hi   int
	}{
		{"T1", gen.PaperT1(0), 1, 10},
		{"T2", gen.PaperT2(0), 1, 10},
		{"chain-100", chain, 8, 67},
		{"random-jobs", gen.RandomJobs(gen.RandomOptions{Seed: 3, Jobs: 4, MinTasks: 6, MaxTasks: 6, Processors: 8}), 24, 33},
	}
	for _, sw := range sweeps {
		var caps []int
		for c := sw.lo; c <= sw.hi; c++ {
			caps = append(caps, c)
		}
		var res []TradeoffPoint
		pts := recordSolves(t, func() {
			var err error
			if res, err = SweepBufferCaps(ctx, sw.cfg, nil, caps, opt); err != nil {
				t.Fatalf("%s: %v", sw.name, err)
			}
		})
		checkFamily(t, sw.name, pts, len(caps))
		for _, p := range res {
			if p.Result.Status != StatusOptimal {
				t.Fatalf("%s cap %d: status %v", sw.name, p.Cap, p.Result.Status)
			}
		}
	}
	for _, bound := range []float64{0, 1000, 500} {
		var res *DSEResult
		pts := recordSolves(t, func() {
			var err error
			if res, err = DSEBisect(ctx, chain, DSEOptions{MaxCap: 64, BudgetBound: bound}, opt); err != nil {
				t.Fatalf("DSE bound %g: %v", bound, err)
			}
		})
		// The min-cap solve is not a family member (it has one more
		// variable and more rows) and does not go through solveWarm, so
		// the family's solves are exactly the probes.
		checkFamily(t, "DSE", pts, len(res.Probes))
		for i, p := range res.Probes {
			if got := pts[i].cfg.Graphs[0].Buffers[0].MaxContainers; got != p.Cap {
				t.Fatalf("DSE bound %g probe %d: solved cap %d, want %d", bound, i, got, p.Cap)
			}
		}
	}
}

// TestSweepRejectsCapsBelowBufferBounds: a cap below a buffer's initial
// tokens or minimum capacity fails its own point with the validation
// error a direct Solve of that point returns, at its index, and the other
// points still solve — also when the first point is one of the failures
// and the cone program is built from a later one.
func TestSweepRejectsCapsBelowBufferBounds(t *testing.T) {
	c := gen.Chain(gen.ChainOptions{Tasks: 4})
	c.Graphs[0].Buffers[0].InitialTokens = 3
	c.Graphs[0].Buffers[2].MinContainers = 5
	caps := []int{2, 6, 4, 7, 1, 8}
	wantErr := map[int]string{
		0: `taskgraph: buffer "b0" has more initial tokens than max capacity`,
		2: `taskgraph: buffer "b2" has min containers 5 above max 4`,
		4: `taskgraph: buffer "b0" has more initial tokens than max capacity`,
	}
	for _, par := range []int{1, 2} {
		pts, err := SweepBufferCaps(context.Background(), c, nil, caps, Options{Parallelism: par, WarmChunk: 2})
		if err == nil {
			t.Fatalf("parallelism %d: sweep with invalid caps succeeded", par)
		}
		failed := map[int]bool{}
		for _, e := range err.(interface{ Unwrap() []error }).Unwrap() {
			var je *JobError
			if !errors.As(e, &je) {
				t.Fatalf("parallelism %d: %v is not a JobError", par, e)
			}
			if je.Err.Error() != wantErr[je.Index] {
				t.Fatalf("parallelism %d: point %d error %q, want %q", par, je.Index, je.Err, wantErr[je.Index])
			}
			failed[je.Index] = true
		}
		for i, p := range pts {
			if failed[i] != (wantErr[i] != "") {
				t.Fatalf("parallelism %d: point %d failed = %v", par, i, failed[i])
			}
			if failed[i] {
				continue
			}
			if p.Result == nil || p.Result.Status != StatusOptimal || p.Cap != caps[i] || !p.Result.Verification.OK {
				t.Fatalf("parallelism %d: point %d (cap %d) did not solve: %+v", par, i, caps[i], p)
			}
		}
	}
	for i, msg := range wantErr {
		if _, err := Solve(context.Background(), withCaps(c, caps[i], func(*taskgraph.Buffer) bool { return true }), Options{}); err == nil || err.Error() != msg {
			t.Fatalf("direct solve of point %d: %v, want %q", i, err, msg)
		}
	}
}
