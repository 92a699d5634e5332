package dfmodel

import (
	"fmt"

	"repro/internal/srdf"
	"repro/internal/taskgraph"
)

// Firing is one firing copy of a task: the actor pair v1 (worst-case
// budget-replenishment latency ϱ − β) and v2 (processing at the guaranteed
// rate ϱ·χ/β). Firing k of a Model owns the actors 2k (v1) and 2k+1 (v2),
// which are also the srdf.ActorIDs BuildGraph gives them.
type Firing struct {
	// Task indexes the firing's task in the task graph's Tasks.
	Task int
	// Copy numbers the firing within one iteration, 0 ≤ Copy < q(task).
	Copy int
	// Pinned marks the v1 actor that is the reference of its weakly
	// connected component: copy 0 of the component's first task. The
	// optimizer fixes its start time to 0, which removes the translation
	// nullspace of the schedule.
	Pinned bool
}

// Queue is one SRDF queue: every firing of Dst waits for a token that Src
// produced, with Tokens initial tokens on the queue.
type Queue struct {
	Src, Dst srdf.ActorID
	Tokens   int
	// Buffer indexes the buffer the queue models in the task graph's
	// Buffers, or is −1 for a task's own queues (v1→v2 and the sequencing
	// queue through the v2 copies, a self-loop for single-rate tasks).
	Buffer int
	// Space marks a buffer's space queue, consumer v2 → producer v1. In a
	// model with free capacities its tokens are Tokens + δ′(Buffer).
	Space bool
}

// Latency is one latency constraint of the task graph as actors: the v1
// of the source task's copy 0 and the v2 of the sink task's copy 0.
type Latency struct {
	Src, Dst srdf.ActorID
	Bound    float64
}

// Model lists the SRDF model of one task graph (§II-C) once, for every
// reader: BuildGraph turns it into a numeric srdf.Graph for Verify, and
// internal/core writes its queues as Constraints (6)/(7) of Algorithm 1,
// which the two-phase baselines solve with budgets or capacities fixed. A
// graph whose rates are all 1 takes the two-queue closed form per buffer; a
// multi-rate graph goes through Repetitions and ExpandBuffer.
type Model struct {
	// Firings lists the firing copies task by task, in Tasks order, copies
	// in order within a task.
	Firings []Firing
	// Queues lists each task's v1→v2 queues and then its sequencing
	// queues, task by task, followed by each buffer's data queues and then
	// its space queues, buffer by buffer.
	Queues []Queue
	// Latencies lists the task graph's latency constraints in order.
	Latencies []Latency
	// Repetitions is the repetition vector of a multi-rate graph, nil when
	// every rate is 1 (then every task has one firing copy).
	Repetitions map[string]int
}

// V1 returns the v1 actor of firing k.
func V1(k int) srdf.ActorID { return srdf.ActorID(2 * k) }

// V2 returns the v2 actor of firing k.
func V2(k int) srdf.ActorID { return srdf.ActorID(2*k + 1) }

// Firing returns the firing copy an actor belongs to, and whether the actor
// is that copy's v2.
func (md *Model) Firing(a srdf.ActorID) (Firing, bool) {
	return md.Firings[a/2], a%2 == 1
}

// NewModel enumerates the SRDF model of tg. caps fixes every buffer's
// capacity γ, so a space queue carries γ − ι tokens; nil leaves the
// capacities free, and a space queue's tokens are then the variable δ′ of
// its buffer. A multi-rate graph needs fixed capacities, because its token
// distances are floor functions of γ.
func NewModel(tg *taskgraph.TaskGraph, caps map[string]int) (*Model, error) {
	md := &Model{}
	for i := range tg.Buffers {
		if tg.Buffers[i].EffectiveProd() != 1 || tg.Buffers[i].EffectiveCons() != 1 {
			if caps == nil {
				return nil, fmt.Errorf("dfmodel: graph %s has multi-rate buffers; its model needs fixed capacities", tg.Name)
			}
			reps, err := Repetitions(tg)
			if err != nil {
				return nil, err
			}
			md.Repetitions = reps
			break
		}
	}
	n := len(tg.Tasks)
	ids := make(map[string]int, n)
	// first[i] is the firing index of task i's copy 0; parent is the
	// union-find forest over tasks whose roots are the smallest index of
	// their component, so the roots are the tasks to pin.
	first := make([]int, 2*n)
	parent := first[n:]
	nf := 0
	for i := range tg.Tasks {
		ids[tg.Tasks[i].Name] = i
		first[i] = nf
		parent[i] = i
		nf += md.copies(tg, i)
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	md.Firings = make([]Firing, 0, nf)
	md.Queues = make([]Queue, 0, 2*nf+2*len(tg.Buffers))
	for i := range tg.Tasks {
		q := md.copies(tg, i)
		for j := 0; j < q; j++ {
			md.Firings = append(md.Firings, Firing{Task: i, Copy: j})
			md.Queues = append(md.Queues, Queue{Src: V1(first[i] + j), Dst: V2(first[i] + j), Buffer: -1})
		}
		// Firings of a task are serial: copy j+1 follows copy j within an
		// iteration, and copy 0 follows copy q−1 of the previous one.
		for j := 0; j < q; j++ {
			tok := 0
			if j == q-1 {
				tok = 1
			}
			md.Queues = append(md.Queues, Queue{
				Src: V2(first[i] + j), Dst: V2(first[i] + (j+1)%q), Tokens: tok, Buffer: -1,
			})
		}
	}
	for i := range tg.Buffers {
		b := &tg.Buffers[i]
		from, okFrom := ids[b.From]
		to, okTo := ids[b.To]
		if !okFrom || !okTo {
			return nil, fmt.Errorf("dfmodel: graph %s: buffer %q has an unknown endpoint", tg.Name, b.Name)
		}
		if rf, rt := find(from), find(to); rf < rt {
			parent[rt] = rf
		} else {
			parent[rf] = rt
		}
		gamma := b.InitialTokens
		if caps != nil {
			var ok bool
			if gamma, ok = caps[b.Name]; !ok {
				return nil, fmt.Errorf("dfmodel: no capacity for buffer %q", b.Name)
			}
			if gamma < 1 {
				return nil, fmt.Errorf("dfmodel: buffer %q has capacity %d < 1", b.Name, gamma)
			}
			if gamma < b.InitialTokens {
				return nil, fmt.Errorf("dfmodel: buffer %q capacity %d below initial tokens %d",
					b.Name, gamma, b.InitialTokens)
			}
		}
		if md.Repetitions == nil {
			md.Queues = append(md.Queues,
				Queue{Src: V2(first[from]), Dst: V1(first[to]), Tokens: b.InitialTokens, Buffer: i},
				Queue{Src: V2(first[to]), Dst: V1(first[from]), Tokens: gamma - b.InitialTokens, Buffer: i, Space: true})
			continue
		}
		deps, err := ExpandBuffer(b, md.Repetitions[b.From], md.Repetitions[b.To], gamma)
		if err != nil {
			return nil, err
		}
		for _, d := range deps {
			q := Queue{Src: V2(first[from] + d.SrcCopy), Dst: V1(first[to] + d.DstCopy), Tokens: d.Delta, Buffer: i}
			if d.Space {
				q = Queue{Src: V2(first[to] + d.SrcCopy), Dst: V1(first[from] + d.DstCopy), Tokens: d.Delta, Buffer: i, Space: true}
			}
			md.Queues = append(md.Queues, q)
		}
	}
	for i := range tg.Tasks {
		if find(i) == i {
			md.Firings[first[i]].Pinned = true
		}
	}
	for _, lc := range tg.Latencies {
		src, okSrc := ids[lc.From]
		sink, okSink := ids[lc.To]
		if !okSrc || !okSink {
			return nil, fmt.Errorf("dfmodel: graph %s: latency constraint %s→%s names an unknown task", tg.Name, lc.From, lc.To)
		}
		md.Latencies = append(md.Latencies, Latency{Src: V1(first[src]), Dst: V2(first[sink]), Bound: lc.Bound})
	}
	return md, nil
}

// copies returns q(task i): its repetition count, 1 in a single-rate graph.
func (md *Model) copies(tg *taskgraph.TaskGraph, i int) int {
	if md.Repetitions == nil {
		return 1
	}
	return md.Repetitions[tg.Tasks[i].Name]
}
