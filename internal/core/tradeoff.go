package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/socp"
	"repro/internal/taskgraph"
)

// TradeoffPoint is one point of a budget/buffer trade-off sweep.
type TradeoffPoint struct {
	// Cap is the buffer capacity cap applied at this point (containers).
	Cap int
	// Result is the joint solve under that cap.
	Result *Result
}

// SweepBufferCaps explores the budget/buffer trade-off the way the paper's
// experiments do: it solves the configuration once per cap value, with the
// cap applied as MaxContainers to the named buffers (all buffers when
// buffers is nil). The input configuration is not modified. The per-cap
// solves run on a worker pool bounded by Options.Parallelism, with
// deterministic output ordering; neighboring points share warm starts and a
// pattern cache of solve spaces (see Options.NoWarmStart,
// NoPatternCache, and WarmChunk), which changes solve times but not —
// beyond solver tolerance — the mappings, and not at all when both are
// disabled. Algorithm 1 is built once per call: the points differ only in
// their cap bounds, so each rewrites those rows of h (see capFamily).
//
// Canceling the context stops the sweep promptly; the completed points are
// still returned (unfinished points have a nil Result) together with the
// aggregated error from the worker pool.
func SweepBufferCaps(ctx context.Context, c *taskgraph.Config, buffers []string, caps []int, opt Options) ([]TradeoffPoint, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	for _, cap := range caps {
		if cap < 1 {
			return nil, fmt.Errorf("core: buffer cap %d < 1", cap)
		}
	}
	want := map[string]bool{}
	for _, b := range buffers {
		want[b] = true
	}
	found := map[string]bool{}
	for _, tg := range c.Graphs {
		for i := range tg.Buffers {
			if bf := &tg.Buffers[i]; buffers == nil || want[bf.Name] {
				found[bf.Name] = true
			}
		}
	}
	// Check in caller order, not map order, so the reported buffer is the
	// same on every run.
	for _, b := range buffers {
		if !found[b] {
			return nil, fmt.Errorf("core: swept buffer %q not found in configuration", b)
		}
	}
	sweepCache(&opt)
	var fam capFamily
	return runWarmChunks(ctx, len(caps), opt, func(ctx context.Context, i int, warm *socp.WarmStart) (TradeoffPoint, *socp.WarmStart, error) {
		cc := withCaps(c, caps[i], func(bf *taskgraph.Buffer) bool { return buffers == nil || want[bf.Name] })
		r, w, err := fam.solve(ctx, cc, opt, warm)
		if err != nil {
			return TradeoffPoint{}, nil, err
		}
		return TradeoffPoint{Cap: caps[i], Result: r}, w, nil
	})
}

// withCaps returns a copy of c in which every buffer that swept selects is
// capped at cap containers. Only what the caps change is copied: the graph
// list, each graph and its buffers. Tasks, latencies, processors and
// memories are shared with c and must only be read.
func withCaps(c *taskgraph.Config, cap int, swept func(*taskgraph.Buffer) bool) *taskgraph.Config {
	cc := *c
	cc.Graphs = make([]*taskgraph.TaskGraph, len(c.Graphs))
	for i, tg := range c.Graphs {
		g := *tg
		g.Buffers = slices.Clone(tg.Buffers)
		for j := range g.Buffers {
			if bf := &g.Buffers[j]; swept(bf) {
				bf.MaxContainers = cap
			}
		}
		cc.Graphs[i] = &g
	}
	return &cc
}

// capFamily is Algorithm 1 built once for the configurations of one sweep
// or DSE call, which differ only in the caps (MaxContainers ≥ 1) of the
// swept buffers. G, c and the cone dims are the same for all of them, and
// so is h except at the cap rows δ′ ≤ max − ι. The first point to solve
// builds the shared model and cone program from its own configuration;
// every point then solves a copy of it with its own h, whose cap rows are
// rewritten from its configuration, so it solves exactly the problem
// BuildProblem gives for that configuration. The shared parts are only
// read, so the points of a parallel sweep may solve concurrently.
type capFamily struct {
	once sync.Once
	m    *model
	prob *socp.Problem
	err  error
}

// build checks c, a member of the family, and builds the family's model
// and cone program from the first member that passes. c must be withCaps
// of a validated configuration, so only its buffers' capacity bounds are
// checked (Buffer.ValidateCapacity, in Validate's order): a member whose
// cap fails fails with the error Solve would return for it.
func (f *capFamily) build(c *taskgraph.Config) error {
	for _, tg := range c.Graphs {
		for j := range tg.Buffers {
			if err := tg.Buffers[j].ValidateCapacity(); err != nil {
				return err
			}
		}
	}
	f.once.Do(func() { f.m, f.prob, f.err = buildProblem(c) })
	return f.err
}

// solve checks c, a member of the family (see build), and solves it from
// warm. A member whose cap fails fails before any build or solve.
func (f *capFamily) solve(ctx context.Context, c *taskgraph.Config, opt Options, warm *socp.WarmStart) (*Result, *socp.WarmStart, error) {
	if err := f.build(c); err != nil {
		return nil, nil, err
	}
	prob := *f.prob
	prob.H = slices.Clone(f.prob.H)
	for gi, tg := range c.Graphs {
		for j, r := range f.m.graphs[gi].capRow {
			if r >= 0 {
				bf := &tg.Buffers[j]
				prob.H[r] = float64(bf.MaxContainers - bf.InitialTokens)
			}
		}
	}
	return solveWarm(ctx, c, f.m, &prob, opt, warm)
}

// BudgetSum returns the total allocated budget of a result's mapping, or NaN
// when the point is infeasible. Convenient for plotting trade-off curves.
func (p TradeoffPoint) BudgetSum() float64 {
	if p.Result == nil || p.Result.Mapping == nil {
		return math.NaN()
	}
	names := make([]string, 0, len(p.Result.Mapping.Budgets))
	for name := range p.Result.Mapping.Budgets {
		names = append(names, name)
	}
	sort.Strings(names)
	var sum float64
	for _, name := range names {
		sum += p.Result.Mapping.Budgets[name]
	}
	return sum
}
