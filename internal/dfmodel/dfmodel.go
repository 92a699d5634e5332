// Package dfmodel implements the paper's §II-C translation of a task graph
// running under budget schedulers into a single-rate dataflow (SRDF) graph,
// following Wiggers et al. (EMSOFT'09):
//
//   - each task w becomes two actors: v1 with firing duration
//     ϱ(π(w)) − β(w) (worst-case budget-replenishment latency) and v2 with
//     duration ϱ(π(w))·χ(w)/β(w) (processing at the guaranteed rate), joined
//     by a token-free queue v1→v2 and a self-loop on v2 with one token;
//   - each buffer b from wa to wb becomes a data queue a2→b1 with ι(b)
//     initial tokens and a space queue b2→a1 with γ(b)−ι(b) initial tokens.
//
// If the resulting SRDF graph admits a periodic schedule with period µ(T),
// then by temporal monotonicity the real task graph meets its throughput
// constraint — this is what makes the package the independent verifier for
// every mapping the optimizer produces.
//
// Multi-rate task graphs (buffers with production or consumption rates other
// than 1) are expanded into the same kind of SRDF graph: Repetitions solves
// the balance equations for the number of firings q(w) of each task per
// iteration, each task becomes q(w) two-actor copies fired in turn, and
// ExpandBuffer turns each buffer into the data and space dependencies
// between the copies.
//
// NewModel lists this translation once: the firing copies, the queues with
// their constant tokens (and, when capacities are free, the buffer whose
// δ′ a space queue adds), and the pinned actor of each weakly connected
// component. BuildGraph gives it numbers for Verify and LatencyBound;
// internal/core writes its queues as Constraints (6)/(7) of Algorithm 1,
// as the rows of the budget-first baseline's buffer-sizing LP and as the
// fixed-capacity cone programs of the buffer-first baseline, which is what
// internal/mrate solves at each candidate capacity.
package dfmodel

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/srdf"
	"repro/internal/taskgraph"
)

// TaskActors holds the two SRDF actors modelling one task.
type TaskActors struct {
	V1, V2 srdf.ActorID
}

// BufferEdges holds the two SRDF queues modelling one buffer.
type BufferEdges struct {
	Data, Space srdf.EdgeID
}

// Index maps task-graph entities to their SRDF counterparts.
type Index struct {
	// Tasks maps each task to its (first) two-actor component.
	Tasks map[string]TaskActors
	// Buffers maps each buffer to its data/space queues (single-rate graphs
	// only; multi-rate buffers expand to many edges).
	Buffers map[string]BufferEdges
	// TaskCopies lists all firing copies per task for multi-rate graphs
	// (nil for single-rate; then each task has exactly one copy in Tasks).
	TaskCopies map[string][]TaskActors
	// Repetitions is the repetition vector (nil for single-rate graphs).
	Repetitions map[string]int
}

// BuildGraph constructs the SRDF graph of one task graph under the given
// mapping: the actors and queues of NewModel with the mapping's numbers.
// Budgets must be positive and at most the replenishment interval;
// capacities must cover the initial tokens and be at least one container.
// The Period of a multi-rate graph is its iteration period: task w
// completes q(w) firings per Period.
func BuildGraph(c *taskgraph.Config, tg *taskgraph.TaskGraph, m *taskgraph.Mapping) (*srdf.Graph, *Index, error) {
	md, err := NewModel(tg, m.Capacities)
	if err != nil {
		return nil, nil, err
	}
	g := srdf.NewGraphSize(2*len(md.Firings), len(md.Queues))
	idx := &Index{
		Tasks:       make(map[string]TaskActors, len(tg.Tasks)),
		Repetitions: md.Repetitions,
	}
	if md.Repetitions == nil {
		idx.Buffers = make(map[string]BufferEdges, len(tg.Buffers))
	} else {
		idx.TaskCopies = make(map[string][]TaskActors, len(tg.Tasks))
	}
	for _, f := range md.Firings {
		w := &tg.Tasks[f.Task]
		p, ok := c.Processor(w.Processor)
		if !ok {
			return nil, nil, fmt.Errorf("dfmodel: task %q on unknown processor %q", w.Name, w.Processor)
		}
		beta, ok := m.Budgets[w.Name]
		if !ok {
			return nil, nil, fmt.Errorf("dfmodel: no budget for task %q", w.Name)
		}
		if beta <= 0 {
			return nil, nil, fmt.Errorf("dfmodel: task %q has non-positive budget %v", w.Name, beta)
		}
		if beta > p.Replenishment+1e-9 {
			return nil, nil, fmt.Errorf("dfmodel: task %q budget %v exceeds replenishment interval %v",
				w.Name, beta, p.Replenishment)
		}
		name := w.Name
		if md.Repetitions != nil {
			name = fmt.Sprintf("%s#%d", w.Name, f.Copy)
		}
		a := TaskActors{
			V1: g.AddActor(name+".v1", math.Max(0, p.Replenishment-beta)),
			V2: g.AddActor(name+".v2", p.Replenishment*w.WCET/beta),
		}
		if f.Copy == 0 {
			idx.Tasks[w.Name] = a
		}
		if idx.TaskCopies != nil {
			idx.TaskCopies[w.Name] = append(idx.TaskCopies[w.Name], a)
		}
	}
	for _, q := range md.Queues {
		e := g.AddEdge("", q.Src, q.Dst, q.Tokens)
		if q.Buffer >= 0 && idx.Buffers != nil {
			be := idx.Buffers[tg.Buffers[q.Buffer].Name]
			if q.Space {
				be.Space = e
			} else {
				be.Data = e
			}
			idx.Buffers[tg.Buffers[q.Buffer].Name] = be
		}
	}
	if err := g.Validate(); err != nil {
		return nil, nil, err
	}
	return g, idx, nil
}

// Verification is the result of independently checking a mapping against a
// configuration.
type Verification struct {
	OK bool
	// Problems lists human-readable constraint violations (empty when OK).
	Problems []string
	// GraphMinPeriods maps task graph name to the minimum feasible period of
	// its SRDF model under the mapping (must be ≤ the graph's Period), the
	// maximum cycle mean by Howard's policy iteration.
	GraphMinPeriods map[string]float64
	// ProcessorLoads maps processor name to overhead + Σ budgets (must be ≤
	// the replenishment interval).
	ProcessorLoads map[string]float64
	// MemoryUse maps memory name to Σ γ(b)·ζ(b) (must be ≤ capacity).
	MemoryUse map[string]int
}

// VerifyTol is the relative tolerance used by Verify: the SRDF model must
// admit a PAS at the required period times 1+VerifyTol, and processor loads
// may exceed the replenishment interval by the same factor. The optimizer
// computes real-valued budgets to a feasibility tolerance of about 1e-7, so
// a rounded mapping can sit on a binding cycle within that noise; 1e-6 (one
// part per million of the period) absorbs it while still catching every
// real violation.
const VerifyTol = 1e-6

// cycleString names the actors of an SRDF cycle in firing order.
func cycleString(g *srdf.Graph, cycle []srdf.ActorID) string {
	names := make([]string, len(cycle))
	for i, a := range cycle {
		names[i] = g.Actor(a).Name
	}
	return strings.Join(names, " → ")
}

// Verify checks a mapping end to end: per-graph throughput via SRDF
// analysis, per-processor budget capacity (Constraint 4 with overhead), and
// per-memory storage capacity. It never modifies its inputs.
func Verify(c *taskgraph.Config, m *taskgraph.Mapping) (*Verification, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	v := &Verification{
		OK:              true,
		GraphMinPeriods: map[string]float64{},
		ProcessorLoads:  map[string]float64{},
		MemoryUse:       map[string]int{},
	}
	fail := func(format string, args ...any) {
		v.OK = false
		v.Problems = append(v.Problems, fmt.Sprintf(format, args...))
	}

	// The SRDF graph of each task graph, kept for its latency checks.
	graphs := make([]*srdf.Graph, len(c.Graphs))
	indexes := make([]*Index, len(c.Graphs))
	for k, tg := range c.Graphs {
		g, idx, err := BuildGraph(c, tg, m)
		if err != nil {
			return nil, err
		}
		graphs[k], indexes[k] = g, idx
		cycle, mp, err := g.CriticalCycle()
		if err == srdf.ErrDeadlock {
			fail("graph %s: dataflow model deadlocks", tg.Name)
			continue
		}
		if err != nil {
			return nil, err
		}
		v.GraphMinPeriods[tg.Name] = mp
		// The decision is whether a PAS with the required period exists
		// (Constraint 1), by one strict Bellman-Ford test. Howard's MCM is
		// only reported, and with its cycle it explains a failure.
		if !g.FeasibleExact(tg.Period * (1 + VerifyTol)) {
			fail("graph %s: minimum period %.6g exceeds required period %.6g on cycle %s",
				tg.Name, mp, tg.Period, cycleString(g, cycle))
		}
	}

	for i := range c.Processors {
		v.ProcessorLoads[c.Processors[i].Name] = c.Processors[i].Overhead
	}
	// One pass over the tasks adds the budgets in TasksOn order.
	for _, tg := range c.Graphs {
		for _, w := range tg.Tasks {
			v.ProcessorLoads[w.Processor] += m.Budgets[w.Name]
		}
	}
	for i := range c.Processors {
		p := &c.Processors[i]
		if load := v.ProcessorLoads[p.Name]; load > p.Replenishment*(1+VerifyTol) {
			fail("processor %s: load %.6g exceeds replenishment interval %.6g", p.Name, load, p.Replenishment)
		}
	}

	for i := range c.Memories {
		mem := &c.Memories[i]
		use := 0
		for _, tg := range c.Graphs {
			for j := range tg.Buffers {
				b := &tg.Buffers[j]
				if b.Memory == mem.Name {
					use += m.Capacities[b.Name] * b.EffectiveContainerSize()
				}
			}
		}
		v.MemoryUse[mem.Name] = use
		if use > mem.Capacity {
			fail("memory %s: use %d exceeds capacity %d", mem.Name, use, mem.Capacity)
		}
	}

	// Per-buffer bounds.
	for _, tg := range c.Graphs {
		for j := range tg.Buffers {
			b := &tg.Buffers[j]
			gamma := m.Capacities[b.Name]
			if b.MaxContainers > 0 && gamma > b.MaxContainers {
				fail("buffer %s: capacity %d exceeds cap %d", b.Name, gamma, b.MaxContainers)
			}
			if b.MinContainers > 0 && gamma < b.MinContainers {
				fail("buffer %s: capacity %d below minimum %d", b.Name, gamma, b.MinContainers)
			}
		}
	}

	// Latency constraints: the best schedule of the rounded mapping must
	// meet each bound.
	for k, tg := range c.Graphs {
		for _, lc := range tg.Latencies {
			lat, err := latencyBound(graphs[k], indexes[k], tg.Period, lc.From, lc.To)
			if err != nil {
				fail("latency %s→%s: %v", lc.From, lc.To, err)
				continue
			}
			if lat > lc.Bound*(1+VerifyTol) {
				fail("latency %s→%s: %.6g exceeds bound %.6g", lc.From, lc.To, lat, lc.Bound)
			}
		}
	}
	return v, nil
}
