package core

import (
	"context"
	"fmt"
	"math"
	"sort"

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
// pattern cache of factorization pipelines (see Options.NoWarmStart,
// NoPatternCache, and WarmChunk), which changes solve times but not —
// beyond solver tolerance — the mappings, and not at all when both are
// disabled.
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
	return runWarmChunks(ctx, len(caps), opt, func(ctx context.Context, i int, warm *socp.WarmStart) (TradeoffPoint, *socp.WarmStart, error) {
		cc := c.Clone()
		for _, tg := range cc.Graphs {
			for j := range tg.Buffers {
				if bf := &tg.Buffers[j]; buffers == nil || want[bf.Name] {
					bf.MaxContainers = caps[i]
				}
			}
		}
		r, w, err := solveWarm(ctx, cc, opt, warm)
		if err != nil {
			return TradeoffPoint{}, nil, err
		}
		return TradeoffPoint{Cap: caps[i], Result: r}, w, nil
	})
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
