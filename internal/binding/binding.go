// Package binding implements the extension the paper names as its most
// important next step: computing the binding of tasks to processors and of
// buffers to memories, on top of the joint budget/buffer solve.
//
// The joint cone program of internal/core evaluates a *given* binding; this
// package searches the binding space using that solve as the oracle:
//
//   - Exhaustive enumerates every (task→processor, buffer→memory)
//     assignment — exact, for small instances and for validating heuristics;
//   - Greedy builds a binding by balanced first-fit on rate-minimal budget
//     load and memory pressure, then improves it by steepest-descent task
//     moves and swaps, re-solving the cone program for each candidate.
//
// Both return the bound configuration together with its solved mapping, so
// the result slots directly into the rest of the flow (verification,
// simulation, …).
package binding

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/taskgraph"
)

// Result is the outcome of a binding search.
type Result struct {
	// Config is the input configuration with task/buffer bindings replaced
	// by the chosen assignment.
	Config *taskgraph.Config
	// Solve is the joint budget/buffer solution for that binding.
	Solve *core.Result
	// Evaluated counts the candidate bindings that were solved.
	Evaluated int
}

// Exhaustive tries every assignment of tasks to processors and buffers to
// memories and returns the feasible binding with the smallest objective.
// The search space is |P|^|W| · |M|^|B|; it refuses instances beyond
// maxCandidates (default 20000) to keep run times sane.
func Exhaustive(ctx context.Context, c *taskgraph.Config, opt core.Options, maxCandidates int) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if maxCandidates <= 0 {
		maxCandidates = 20000
	}
	tasks, buffers := entityLists(c)
	nCand := 1.0
	for range tasks {
		nCand *= float64(len(c.Processors))
	}
	for range buffers {
		nCand *= float64(len(c.Memories))
	}
	if nCand > float64(maxCandidates) {
		return nil, fmt.Errorf("binding: %.0f candidates exceed the cap of %d; use Greedy", nCand, maxCandidates)
	}

	best := &Result{}
	bestObj := math.Inf(1)
	evaluated := 0
	assignTask := make([]int, len(tasks))
	assignBuf := make([]int, len(buffers))
	var rec func(i int)
	var recBuf func(i int)
	recBuf = func(i int) {
		if i == len(buffers) {
			if ctx.Err() != nil {
				return
			}
			cand := apply(c, tasks, assignTask, buffers, assignBuf)
			r, err := core.Solve(ctx, cand, opt)
			evaluated++
			if err == nil && r.Status == core.StatusOptimal && r.Mapping.Objective < bestObj {
				bestObj = r.Mapping.Objective
				best.Config = cand
				best.Solve = r
			}
			return
		}
		for m := range c.Memories {
			assignBuf[i] = m
			recBuf(i + 1)
		}
	}
	rec = func(i int) {
		if i == len(tasks) {
			recBuf(0)
			return
		}
		for p := range c.Processors {
			assignTask[i] = p
			rec(i + 1)
		}
	}
	rec(0)
	best.Evaluated = evaluated
	if err := ctx.Err(); err != nil {
		// The search was cut short; surface the best binding found so far
		// (possibly none) together with the cancellation.
		return best, err
	}
	if best.Config == nil {
		return best, fmt.Errorf("binding: no feasible binding among %d candidates", evaluated)
	}
	return best, nil
}

// Greedy builds an initial balanced binding and improves it by
// steepest-descent moves (rebind one task or one buffer) until no move
// lowers the objective. maxRounds bounds the improvement loop (default 10).
func Greedy(ctx context.Context, c *taskgraph.Config, opt core.Options, maxRounds int) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if maxRounds <= 0 {
		maxRounds = 10
	}
	tasks, buffers := entityLists(c)

	// ---- Initial assignment: balanced first-fit ----
	// Tasks in decreasing rate-minimal budget, onto the least-loaded
	// processor; buffers in decreasing footprint, onto the least-used memory.
	type taskLoad struct {
		idx  int
		load float64
	}
	tl := make([]taskLoad, len(tasks))
	for i, ref := range tasks {
		w := taskByName(c, ref)
		// Rate-minimal budget is ϱχ/µ; ϱ varies per processor, so use χ/µ
		// as the processor-independent load proxy.
		tl[i] = taskLoad{i, w.WCET / graphOf(c, ref).Period}
	}
	sort.Slice(tl, func(a, b int) bool { return tl[a].load > tl[b].load })
	assignTask := make([]int, len(tasks))
	procLoad := make([]float64, len(c.Processors))
	for _, t := range tl {
		bestP, bestV := 0, math.Inf(1)
		for p := range c.Processors {
			// Normalize by the replenishment interval so heterogeneous
			// processors balance fractionally.
			v := (procLoad[p] + t.load*c.Processors[p].Replenishment) / c.Processors[p].Replenishment
			if v < bestV {
				bestV, bestP = v, p
			}
		}
		assignTask[t.idx] = bestP
		procLoad[bestP] += t.load * c.Processors[bestP].Replenishment
	}
	assignBuf := make([]int, len(buffers))
	memUse := make([]int, len(c.Memories))
	for i, ref := range buffers {
		b := bufferByName(c, ref)
		bestM, bestV := 0, math.Inf(1)
		for m := range c.Memories {
			v := float64(memUse[m]+b.EffectiveContainerSize()) / math.Max(1, float64(c.Memories[m].Capacity))
			if v < bestV {
				bestV, bestM = v, m
			}
		}
		assignBuf[i] = bestM
		memUse[bestM] += b.EffectiveContainerSize()
	}

	evaluate := func() (*taskgraph.Config, *core.Result, float64) {
		cand := apply(c, tasks, assignTask, buffers, assignBuf)
		r, err := core.Solve(ctx, cand, opt)
		if err != nil || r.Status != core.StatusOptimal {
			return cand, r, math.Inf(1)
		}
		return cand, r, r.Mapping.Objective
	}

	evaluated := 0
	curCfg, curRes, curObj := evaluate()
	evaluated++

	// ---- Steepest-descent improvement ----
	for round := 0; round < maxRounds && ctx.Err() == nil; round++ {
		improved := false
		// Task moves.
		for i := range tasks {
			orig := assignTask[i]
			for p := range c.Processors {
				if p == orig {
					continue
				}
				assignTask[i] = p
				cfg2, r2, obj2 := evaluate()
				evaluated++
				if obj2 < curObj-1e-9 {
					curCfg, curRes, curObj = cfg2, r2, obj2
					orig = p
					improved = true
				} else {
					assignTask[i] = orig
				}
			}
			assignTask[i] = orig
		}
		// Buffer moves.
		for i := range buffers {
			orig := assignBuf[i]
			for m := range c.Memories {
				if m == orig {
					continue
				}
				assignBuf[i] = m
				cfg2, r2, obj2 := evaluate()
				evaluated++
				if obj2 < curObj-1e-9 {
					curCfg, curRes, curObj = cfg2, r2, obj2
					orig = m
					improved = true
				} else {
					assignBuf[i] = orig
				}
			}
			assignBuf[i] = orig
		}
		if !improved {
			break
		}
	}
	res := &Result{Config: curCfg, Solve: curRes, Evaluated: evaluated}
	if math.IsInf(curObj, 1) {
		return res, fmt.Errorf("binding: greedy search found no feasible binding (%d candidates tried)", evaluated)
	}
	return res, nil
}

// entityRef identifies a task or buffer by graph index and name.
type entityRef struct {
	graph int
	name  string
}

func entityLists(c *taskgraph.Config) (tasks, buffers []entityRef) {
	for gi, tg := range c.Graphs {
		for _, w := range tg.Tasks {
			tasks = append(tasks, entityRef{gi, w.Name})
		}
		for _, b := range tg.Buffers {
			buffers = append(buffers, entityRef{gi, b.Name})
		}
	}
	return tasks, buffers
}

func taskByName(c *taskgraph.Config, ref entityRef) *taskgraph.Task {
	tg := c.Graphs[ref.graph]
	for i := range tg.Tasks {
		if tg.Tasks[i].Name == ref.name {
			return &tg.Tasks[i]
		}
	}
	panic("binding: unknown task " + ref.name)
}

func bufferByName(c *taskgraph.Config, ref entityRef) *taskgraph.Buffer {
	tg := c.Graphs[ref.graph]
	for i := range tg.Buffers {
		if tg.Buffers[i].Name == ref.name {
			return &tg.Buffers[i]
		}
	}
	panic("binding: unknown buffer " + ref.name)
}

func graphOf(c *taskgraph.Config, ref entityRef) *taskgraph.TaskGraph {
	return c.Graphs[ref.graph]
}

// apply clones the configuration and rebinds tasks/buffers per the
// assignments.
func apply(c *taskgraph.Config, tasks []entityRef, assignTask []int, buffers []entityRef, assignBuf []int) *taskgraph.Config {
	cand := c.Clone()
	for i, ref := range tasks {
		tg := cand.Graphs[ref.graph]
		for j := range tg.Tasks {
			if tg.Tasks[j].Name == ref.name {
				tg.Tasks[j].Processor = cand.Processors[assignTask[i]].Name
			}
		}
	}
	for i, ref := range buffers {
		tg := cand.Graphs[ref.graph]
		for j := range tg.Buffers {
			if tg.Buffers[j].Name == ref.name {
				tg.Buffers[j].Memory = cand.Memories[assignBuf[i]].Name
			}
		}
	}
	return cand
}
