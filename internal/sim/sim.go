// Package sim is a discrete-event simulator of the real multiprocessor
// system the paper targets: tasks running under TDM budget schedulers,
// synchronizing on containers in fixed-capacity FIFO buffers.
//
// The dataflow model used by the optimizer (internal/dfmodel) abstracts the
// TDM scheduler by a worst-case latency-rate curve; this simulator
// implements the concrete semantics that curve must bound:
//
//   - each task owns a contiguous slice of β(w) Mcycles at a fixed offset in
//     its processor's ϱ(p) wheel, and makes progress only inside its slice;
//   - a task starts a firing when every input buffer holds a filled
//     container and every output buffer an empty one; at the start it claims
//     them, at completion it frees the input containers and fills the output
//     containers;
//   - execution times may vary per firing (data-dependent), bounded by the
//     task's WCET.
//
// Running a verified mapping here for arbitrary slice offsets and execution
// times checks the paper's conservativeness claim end to end: the achieved
// steady-state period never exceeds the required period µ.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"repro/internal/dfmodel"
	"repro/internal/taskgraph"
)

// ExecModel returns the execution time (in Mcycles) of the given firing of a
// task. Implementations must never exceed the task's WCET; Run checks this.
type ExecModel func(task string, firing int) float64

// Options configures a simulation run.
type Options struct {
	// Offsets fixes each task's TDM slice offset within its processor's
	// wheel. nil packs tasks back to back after the scheduling overhead
	// (AutoOffsets).
	Offsets map[string]float64
	// Exec supplies per-firing execution times; nil means WCET always.
	Exec ExecModel
	// Firings is the number of graph iterations to simulate (default 200,
	// minimum 8): every task fires Firings·q(task) times, where q is the
	// repetition vector (all ones for single-rate graphs).
	Firings int
	// Horizon aborts the run at this simulated time (default: unlimited).
	Horizon float64
}

// TaskStats summarizes one task's simulated behaviour.
type TaskStats struct {
	Firings int
	// First and Last are the completion times of the first and last firing.
	First, Last float64
	// SteadyPeriod estimates the steady-state inter-completion time from the
	// second half of the run. The estimate carries a transient bias of up to
	// roughly one replenishment interval divided by the number of firings;
	// use Done for exact per-firing guarantees.
	SteadyPeriod float64
	// Done lists the completion time of every simulated firing.
	Done []float64
}

// Result is the outcome of a simulation.
type Result struct {
	Tasks map[string]TaskStats
	// Deadlocked reports that the system stopped before every task finished
	// its firings (this would falsify the model's conservativeness and
	// cannot happen for verified mappings).
	Deadlocked bool
	// EndTime is the simulated time at which the run ended.
	EndTime float64
}

// AutoOffsets packs each processor's tasks back to back, starting after the
// scheduling overhead. It fails if the budgets do not fit the wheel.
func AutoOffsets(c *taskgraph.Config, m *taskgraph.Mapping) (map[string]float64, error) {
	offsets := map[string]float64{}
	for i := range c.Processors {
		p := &c.Processors[i]
		at := p.Overhead
		tasks := c.TasksOn(p.Name)
		sort.Strings(tasks)
		for _, tn := range tasks {
			b, ok := m.Budgets[tn]
			if !ok {
				return nil, fmt.Errorf("sim: no budget for task %q", tn)
			}
			offsets[tn] = at
			at += b
		}
		if at > p.Replenishment*(1+1e-9) {
			return nil, fmt.Errorf("sim: budgets on processor %q exceed the wheel: %v > %v",
				p.Name, at, p.Replenishment)
		}
	}
	return offsets, nil
}

// serviceCompletion returns the earliest time a task with slice
// [off, off+beta) in a wheel of length rho finishes `work` Mcycles of
// execution when it becomes ready at time `start`.
func serviceCompletion(rho, off, beta, start, work float64) float64 {
	if work <= 0 {
		return start
	}
	t := start
	for {
		// Window of the wheel containing (or preceding) t; when t is at or
		// past the end of that window, move to the next wheel's window. The
		// explicit t >= winEnd re-check also guards against floor() rounding
		// at exact wheel boundaries, which would otherwise stall the loop.
		n := math.Floor((t - off) / rho)
		winStart := n*rho + off
		winEnd := winStart + beta
		if t >= winEnd {
			winStart = (n+1)*rho + off
			winEnd = winStart + beta
		}
		if t < winStart {
			t = winStart
		}
		avail := winEnd - t
		if work <= avail {
			return t + work
		}
		work -= avail
		t = winEnd
	}
}

// bufState tracks a FIFO buffer's containers during simulation.
type bufState struct {
	tokens int // filled containers available to the consumer
	space  int // empty containers available to the producer
}

// taskState tracks one task during simulation.
type taskState struct {
	name     string
	target   int // firings to simulate (iterations × repetition count)
	rho      float64
	off      float64
	beta     float64
	wcet     float64
	inputs   []int // buffer indices consumed
	inRates  []int // containers consumed per firing, parallel to inputs
	outputs  []int // buffer indices produced
	outRates []int // containers produced per firing, parallel to outputs
	running  bool
	fired    int
	done     []float64 // completion times
}

// event is a firing completion.
type event struct {
	time float64
	task int
	seq  int // tie-break for determinism
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)   { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)     { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() (out any) { old := *h; n := len(old); out = old[n-1]; *h = old[:n-1]; return }
func (h *eventHeap) empty() bool    { return len(*h) == 0 }
func (h *eventHeap) push(e event)   { heap.Push(h, e) }
func (h *eventHeap) pop() (e event) { return heap.Pop(h).(event) }

// Run simulates the mapped configuration. The mapping must assign a budget
// to every task and a capacity to every buffer.
func Run(c *taskgraph.Config, m *taskgraph.Mapping, opt Options) (*Result, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if opt.Firings == 0 {
		opt.Firings = 200
	}
	if opt.Firings < 8 {
		opt.Firings = 8
	}
	offsets := opt.Offsets
	if offsets == nil {
		var err error
		offsets, err = AutoOffsets(c, m)
		if err != nil {
			return nil, err
		}
	}

	// Build the flat simulation state.
	var tasks []*taskState
	taskIdx := map[string]int{}
	var bufs []*bufState
	var producerOf, consumerOf []int // per buffer index
	for _, tg := range c.Graphs {
		reps, err := dfmodel.Repetitions(tg)
		if err != nil {
			return nil, err
		}
		for i := range tg.Tasks {
			w := &tg.Tasks[i]
			p, _ := c.Processor(w.Processor)
			beta, ok := m.Budgets[w.Name]
			if !ok || beta <= 0 {
				return nil, fmt.Errorf("sim: missing or non-positive budget for task %q", w.Name)
			}
			off, ok := offsets[w.Name]
			if !ok {
				return nil, fmt.Errorf("sim: no slice offset for task %q", w.Name)
			}
			if off < 0 || off+beta > p.Replenishment*(1+1e-9) {
				return nil, fmt.Errorf("sim: slice of task %q does not fit the wheel", w.Name)
			}
			taskIdx[w.Name] = len(tasks)
			tasks = append(tasks, &taskState{
				name: w.Name, target: opt.Firings * reps[w.Name],
				rho: p.Replenishment, off: off, beta: beta, wcet: w.WCET,
			})
		}
		for i := range tg.Buffers {
			bf := &tg.Buffers[i]
			gamma, ok := m.Capacities[bf.Name]
			if !ok || gamma < 1 {
				return nil, fmt.Errorf("sim: missing or invalid capacity for buffer %q", bf.Name)
			}
			if gamma < bf.InitialTokens {
				return nil, fmt.Errorf("sim: buffer %q capacity below initial tokens", bf.Name)
			}
			bi := len(bufs)
			bufs = append(bufs, &bufState{tokens: bf.InitialTokens, space: gamma - bf.InitialTokens})
			prod := tasks[taskIdx[bf.From]]
			prod.outputs = append(prod.outputs, bi)
			prod.outRates = append(prod.outRates, bf.EffectiveProd())
			cons := tasks[taskIdx[bf.To]]
			cons.inputs = append(cons.inputs, bi)
			cons.inRates = append(cons.inRates, bf.EffectiveCons())
			producerOf = append(producerOf, taskIdx[bf.From])
			consumerOf = append(consumerOf, taskIdx[bf.To])
		}
	}
	// Validate slice disjointness per processor.
	if err := checkSlices(c, m, offsets); err != nil {
		return nil, err
	}

	exec := opt.Exec
	if exec == nil {
		exec = func(string, int) float64 { return math.NaN() } // sentinel: use WCET
	}

	var pq eventHeap
	seq := 0
	tryStart := func(ti int, now float64) {
		ts := tasks[ti]
		if ts.running || ts.fired >= ts.target {
			return
		}
		for i, bi := range ts.inputs {
			if bufs[bi].tokens < ts.inRates[i] {
				return
			}
		}
		for i, bi := range ts.outputs {
			if bufs[bi].space < ts.outRates[i] {
				return
			}
		}
		// Claim containers.
		for i, bi := range ts.inputs {
			bufs[bi].tokens -= ts.inRates[i]
		}
		for i, bi := range ts.outputs {
			bufs[bi].space -= ts.outRates[i]
		}
		work := exec(ts.name, ts.fired)
		if math.IsNaN(work) {
			work = ts.wcet
		}
		if work < 0 || work > ts.wcet*(1+1e-12) {
			panic(fmt.Sprintf("sim: exec model returned %v for task %s (WCET %v)", work, ts.name, ts.wcet))
		}
		ts.running = true
		done := serviceCompletion(ts.rho, ts.off, ts.beta, now, work)
		seq++
		pq.push(event{time: done, task: ti, seq: seq})
	}

	for ti := range tasks {
		tryStart(ti, 0)
	}
	endTime := 0.0
	for !pq.empty() {
		e := pq.pop()
		if opt.Horizon > 0 && e.time > opt.Horizon {
			endTime = opt.Horizon
			break
		}
		endTime = e.time
		ts := tasks[e.task]
		ts.running = false
		ts.fired++
		ts.done = append(ts.done, e.time)
		// Release input containers, fill output containers.
		for i, bi := range ts.inputs {
			bufs[bi].space += ts.inRates[i]
		}
		for i, bi := range ts.outputs {
			bufs[bi].tokens += ts.outRates[i]
		}
		// The completion may unblock this task, the producers feeding its
		// inputs (space freed), and the consumers of its outputs (tokens).
		tryStart(e.task, e.time)
		for _, bi := range ts.inputs {
			tryStart(producerOf[bi], e.time)
		}
		for _, bi := range ts.outputs {
			tryStart(consumerOf[bi], e.time)
		}
	}

	res := &Result{Tasks: map[string]TaskStats{}, EndTime: endTime}
	for _, ts := range tasks {
		st := TaskStats{Firings: ts.fired}
		if ts.fired > 0 {
			st.First = ts.done[0]
			st.Last = ts.done[len(ts.done)-1]
		}
		st.Done = ts.done
		if ts.fired >= 4 {
			half := ts.fired / 2
			st.SteadyPeriod = (ts.done[ts.fired-1] - ts.done[half]) / float64(ts.fired-1-half)
		}
		if ts.fired < ts.target && (opt.Horizon == 0 || endTime < opt.Horizon) {
			res.Deadlocked = true
		}
		res.Tasks[ts.name] = st
	}
	return res, nil
}

// checkSlices verifies that the TDM slices on each processor are disjoint
// within the wheel.
func checkSlices(c *taskgraph.Config, m *taskgraph.Mapping, offsets map[string]float64) error {
	type slice struct {
		name     string
		from, to float64
	}
	for i := range c.Processors {
		p := &c.Processors[i]
		var ss []slice
		for _, tn := range c.TasksOn(p.Name) {
			ss = append(ss, slice{tn, offsets[tn], offsets[tn] + m.Budgets[tn]})
		}
		sort.Slice(ss, func(a, b int) bool { return ss[a].from < ss[b].from })
		for k := 1; k < len(ss); k++ {
			if ss[k].from < ss[k-1].to-1e-9 {
				return fmt.Errorf("sim: slices of %q and %q overlap on processor %q",
					ss[k-1].name, ss[k].name, p.Name)
			}
		}
		if n := len(ss); n > 0 {
			if ss[0].from < p.Overhead-1e-9 {
				return fmt.Errorf("sim: slice of %q overlaps the scheduling overhead on %q",
					ss[0].name, p.Name)
			}
			if ss[n-1].to > p.Replenishment*(1+1e-9) {
				return fmt.Errorf("sim: slice of %q exceeds the wheel on %q", ss[n-1].name, p.Name)
			}
		}
	}
	return nil
}
