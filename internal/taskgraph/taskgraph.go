// Package taskgraph defines the paper's application model (§II-A): a
// configuration C = (Q, P, M, µ, ϱ, o, ς, g) of task graphs mapped onto a
// multiprocessor with budget schedulers, and the mapped configuration that a
// solve produces (budgets β and buffer capacities γ).
//
// Conventions:
//   - all times (replenishment intervals, WCETs, budgets, periods) are in
//     Mcycles as float64, matching the paper's experiments;
//   - the throughput requirement µ of a task graph is expressed as the
//     required period in Mcycles (the paper's "throughput requirement is a
//     period of 10 Mcycles");
//   - buffer capacities are in containers (integers), container sizes ζ in
//     abstract memory units.
package taskgraph

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// Processor is a processing element running a budget scheduler (e.g. TDM).
type Processor struct {
	Name string `json:"name"`
	// Replenishment is the interval ϱ(p) within which every task's budget is
	// guaranteed, in Mcycles.
	Replenishment float64 `json:"replenishment"`
	// Overhead is the worst-case scheduling overhead o(p) per replenishment
	// interval, in Mcycles (pre-allocated budget).
	Overhead float64 `json:"overhead,omitempty"`
}

// Memory is a storage resource holding FIFO buffers.
type Memory struct {
	Name string `json:"name"`
	// Capacity is the storage capacity ς(m) in memory units.
	Capacity int `json:"capacity"`
}

// Task is a vertex of a task graph, bound to a processor.
type Task struct {
	Name string `json:"name"`
	// Processor is the name of the processor π(w) the task executes on.
	Processor string `json:"processor"`
	// WCET is the worst-case execution time χ(w) of one task execution, in
	// Mcycles of the processor it is bound to.
	WCET float64 `json:"wcet"`
	// BudgetWeight is the objective weight a(w) for the task's budget; 0
	// means the default weight of 1.
	BudgetWeight float64 `json:"budgetWeight,omitempty"`
}

// Buffer is a FIFO channel between two tasks of the same task graph.
type Buffer struct {
	Name string `json:"name"`
	From string `json:"from"`
	To   string `json:"to"`
	// ContainerSize is ζ(b), the size of one container in memory units
	// (default 1).
	ContainerSize int `json:"containerSize,omitempty"`
	// InitialTokens is ι(b), the number of initially filled containers.
	InitialTokens int `json:"initialTokens,omitempty"`
	// Memory names the memory ν(b) the buffer is placed in.
	Memory string `json:"memory"`
	// SizeWeight is the objective weight b(b) for the buffer's capacity; 0
	// means the default weight of 1.
	SizeWeight float64 `json:"sizeWeight,omitempty"`
	// MaxContainers optionally caps the capacity γ(b) (0 = uncapped). Used
	// to explore the budget/buffer trade-off, as in the paper's experiments.
	MaxContainers int `json:"maxContainers,omitempty"`
	// MinContainers optionally forces a minimum capacity (0 = none).
	MinContainers int `json:"minContainers,omitempty"`
	// Prod and Cons are the multi-rate extension: every execution of the
	// producer fills Prod containers and every execution of the consumer
	// drains Cons containers (0 means 1, the paper's single-rate case).
	// Multi-rate graphs are analyzed through their HSDF expansion and mapped
	// with the hybrid solver in internal/mrate.
	Prod int `json:"prod,omitempty"`
	Cons int `json:"cons,omitempty"`
}

// EffectiveProd returns the production rate with the default of 1 applied.
func (b *Buffer) EffectiveProd() int {
	if b.Prod <= 0 {
		return 1
	}
	return b.Prod
}

// EffectiveCons returns the consumption rate with the default of 1 applied.
func (b *Buffer) EffectiveCons() int {
	if b.Cons <= 0 {
		return 1
	}
	return b.Cons
}

// MultiRate reports whether any buffer in the configuration has non-unit
// production or consumption rates.
func (c *Config) MultiRate() bool {
	for _, g := range c.Graphs {
		for i := range g.Buffers {
			if g.Buffers[i].EffectiveProd() != 1 || g.Buffers[i].EffectiveCons() != 1 {
				return true
			}
		}
	}
	return false
}

// LatencyConstraint bounds the end-to-end latency from a source task's
// activation to a sink task's completion within one graph (extension: these
// constraints are affine in the cone program's schedule variables, so the
// joint solve honours them directly).
type LatencyConstraint struct {
	From  string  `json:"from"`
	To    string  `json:"to"`
	Bound float64 `json:"bound"` // Mcycles
}

// TaskGraph is one job: a directed multigraph of tasks and buffers with a
// throughput requirement.
type TaskGraph struct {
	Name string `json:"name"`
	// Period is the throughput requirement µ(T): the task graph must sustain
	// one execution of every task per Period Mcycles.
	Period  float64  `json:"period"`
	Tasks   []Task   `json:"tasks"`
	Buffers []Buffer `json:"buffers"`
	// Latencies optionally bound end-to-end latencies (see
	// LatencyConstraint).
	Latencies []LatencyConstraint `json:"latencies,omitempty"`
}

// Config is the full mapping input C = (Q, P, M, µ, ϱ, o, ς, g).
type Config struct {
	Name       string      `json:"name,omitempty"`
	Processors []Processor `json:"processors"`
	Memories   []Memory    `json:"memories"`
	// Granularity is the budget allocation granularity g (in Mcycles);
	// budgets are rounded up to multiples of it. 0 selects 1e-6 Mcycles
	// (one cycle).
	Granularity float64      `json:"granularity,omitempty"`
	Graphs      []*TaskGraph `json:"graphs"`
}

// DefaultGranularity is one cycle expressed in Mcycles.
const DefaultGranularity = 1e-6

// EffectiveGranularity returns the granularity with the default applied.
func (c *Config) EffectiveGranularity() float64 {
	if c.Granularity <= 0 {
		return DefaultGranularity
	}
	return c.Granularity
}

// Task looks up a task by name across all graphs; the bool reports presence.
func (tg *TaskGraph) Task(name string) (*Task, bool) {
	for i := range tg.Tasks {
		if tg.Tasks[i].Name == name {
			return &tg.Tasks[i], true
		}
	}
	return nil, false
}

// Processor looks up a processor by name.
func (c *Config) Processor(name string) (*Processor, bool) {
	for i := range c.Processors {
		if c.Processors[i].Name == name {
			return &c.Processors[i], true
		}
	}
	return nil, false
}

// TasksOn returns the names of all tasks bound to processor p across all
// graphs (the paper's τ(p)).
func (c *Config) TasksOn(p string) []string {
	var out []string
	for _, g := range c.Graphs {
		for _, t := range g.Tasks {
			if t.Processor == p {
				out = append(out, t.Name)
			}
		}
	}
	return out
}

// maxIntField bounds every integer field read from external input
// (capacities, container sizes, token counts, rates). Products of two such
// fields stay well inside int64, so downstream arithmetic cannot overflow.
const maxIntField = 1 << 31

// finite reports whether x is a usable float input (not NaN, not ±Inf).
// Plain sign comparisons silently accept NaN — every float read from
// external input must pass through this first.
func finite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

// Validate checks the configuration for structural and semantic errors.
func (c *Config) Validate() error {
	if len(c.Graphs) == 0 {
		return fmt.Errorf("taskgraph: configuration has no task graphs")
	}
	for i, g := range c.Graphs {
		if g == nil {
			return fmt.Errorf("taskgraph: graph %d is null", i)
		}
	}
	if !finite(c.Granularity) || c.Granularity < 0 {
		return fmt.Errorf("taskgraph: invalid granularity %v", c.Granularity)
	}
	procs := map[string]bool{}
	for _, p := range c.Processors {
		if p.Name == "" {
			return fmt.Errorf("taskgraph: processor with empty name")
		}
		if procs[p.Name] {
			return fmt.Errorf("taskgraph: duplicate processor %q", p.Name)
		}
		procs[p.Name] = true
		if !finite(p.Replenishment) || p.Replenishment <= 0 {
			return fmt.Errorf("taskgraph: processor %q has invalid replenishment interval %v", p.Name, p.Replenishment)
		}
		if !finite(p.Overhead) || p.Overhead < 0 || p.Overhead >= p.Replenishment {
			return fmt.Errorf("taskgraph: processor %q overhead %v outside [0, %v)", p.Name, p.Overhead, p.Replenishment)
		}
	}
	mems := map[string]bool{}
	for _, m := range c.Memories {
		if m.Name == "" {
			return fmt.Errorf("taskgraph: memory with empty name")
		}
		if mems[m.Name] {
			return fmt.Errorf("taskgraph: duplicate memory %q", m.Name)
		}
		mems[m.Name] = true
		if m.Capacity < 0 || m.Capacity > maxIntField {
			return fmt.Errorf("taskgraph: memory %q has capacity %d outside [0, 2^31]", m.Name, m.Capacity)
		}
	}
	graphNames := map[string]bool{}
	taskNames := map[string]bool{} // task names are global (WQ is a union)
	for _, g := range c.Graphs {
		if g.Name == "" {
			return fmt.Errorf("taskgraph: task graph with empty name")
		}
		if graphNames[g.Name] {
			return fmt.Errorf("taskgraph: duplicate task graph %q", g.Name)
		}
		graphNames[g.Name] = true
		if !finite(g.Period) || g.Period <= 0 {
			return fmt.Errorf("taskgraph: graph %q has invalid period %v", g.Name, g.Period)
		}
		if len(g.Tasks) == 0 {
			return fmt.Errorf("taskgraph: graph %q has no tasks", g.Name)
		}
		local := map[string]bool{}
		for _, t := range g.Tasks {
			if t.Name == "" {
				return fmt.Errorf("taskgraph: graph %q has a task with empty name", g.Name)
			}
			if taskNames[t.Name] {
				return fmt.Errorf("taskgraph: duplicate task name %q", t.Name)
			}
			taskNames[t.Name] = true
			local[t.Name] = true
			if !procs[t.Processor] {
				return fmt.Errorf("taskgraph: task %q references unknown processor %q", t.Name, t.Processor)
			}
			if !finite(t.WCET) || t.WCET <= 0 {
				return fmt.Errorf("taskgraph: task %q has invalid WCET %v", t.Name, t.WCET)
			}
			if !finite(t.BudgetWeight) || t.BudgetWeight < 0 {
				return fmt.Errorf("taskgraph: task %q has invalid budget weight %v", t.Name, t.BudgetWeight)
			}
			if p, _ := c.Processor(t.Processor); t.WCET > 0 && p != nil {
				// A task whose WCET exceeds the replenishment interval can
				// still be scheduled (its execution spans intervals), so no
				// constraint here beyond positivity.
				_ = p
			}
		}
		bufNames := map[string]bool{}
		for _, b := range g.Buffers {
			if b.Name == "" {
				return fmt.Errorf("taskgraph: graph %q has a buffer with empty name", g.Name)
			}
			if bufNames[b.Name] {
				return fmt.Errorf("taskgraph: duplicate buffer %q in graph %q", b.Name, g.Name)
			}
			bufNames[b.Name] = true
			if !local[b.From] {
				return fmt.Errorf("taskgraph: buffer %q references unknown producer %q", b.Name, b.From)
			}
			if !local[b.To] {
				return fmt.Errorf("taskgraph: buffer %q references unknown consumer %q", b.Name, b.To)
			}
			if !mems[b.Memory] {
				return fmt.Errorf("taskgraph: buffer %q references unknown memory %q", b.Name, b.Memory)
			}
			if b.ContainerSize < 0 || b.ContainerSize > maxIntField {
				return fmt.Errorf("taskgraph: buffer %q has container size %d outside [0, 2^31]", b.Name, b.ContainerSize)
			}
			if b.InitialTokens < 0 || b.InitialTokens > maxIntField {
				return fmt.Errorf("taskgraph: buffer %q has initial tokens %d outside [0, 2^31]", b.Name, b.InitialTokens)
			}
			if !finite(b.SizeWeight) || b.SizeWeight < 0 {
				return fmt.Errorf("taskgraph: buffer %q has invalid size weight %v", b.Name, b.SizeWeight)
			}
			if b.MaxContainers < 0 || b.MinContainers < 0 ||
				b.MaxContainers > maxIntField || b.MinContainers > maxIntField {
				return fmt.Errorf("taskgraph: buffer %q has capacity bound outside [0, 2^31]", b.Name)
			}
			if b.MaxContainers > 0 && b.MinContainers > b.MaxContainers {
				return fmt.Errorf("taskgraph: buffer %q has min containers %d above max %d",
					b.Name, b.MinContainers, b.MaxContainers)
			}
			if b.MaxContainers > 0 && b.InitialTokens > b.MaxContainers {
				return fmt.Errorf("taskgraph: buffer %q has more initial tokens than max capacity", b.Name)
			}
			if b.Prod < 0 || b.Cons < 0 || b.Prod > maxIntField || b.Cons > maxIntField {
				return fmt.Errorf("taskgraph: buffer %q has rates outside [0, 2^31]", b.Name)
			}
		}
		for _, lc := range g.Latencies {
			if !local[lc.From] {
				return fmt.Errorf("taskgraph: latency constraint references unknown task %q", lc.From)
			}
			if !local[lc.To] {
				return fmt.Errorf("taskgraph: latency constraint references unknown task %q", lc.To)
			}
			if !finite(lc.Bound) || lc.Bound <= 0 {
				return fmt.Errorf("taskgraph: latency constraint %s→%s has invalid bound %v", lc.From, lc.To, lc.Bound)
			}
		}
	}
	return nil
}

// EffectiveContainerSize returns ζ(b) with the default of 1 applied.
func (b *Buffer) EffectiveContainerSize() int {
	if b.ContainerSize <= 0 {
		return 1
	}
	return b.ContainerSize
}

// EffectiveBudgetWeight returns a(w) with the default of 1 applied.
func (t *Task) EffectiveBudgetWeight() float64 {
	if t.BudgetWeight <= 0 {
		return 1
	}
	return t.BudgetWeight
}

// EffectiveSizeWeight returns b(b) with the default of 1 applied.
func (b *Buffer) EffectiveSizeWeight() float64 {
	if b.SizeWeight <= 0 {
		return 1
	}
	return b.SizeWeight
}

// Mapping is the output of a budget/buffer computation: the mapped
// configuration of §II-A2.
type Mapping struct {
	// Budgets maps task name to the allocated budget β(w) in Mcycles per
	// replenishment interval of its processor.
	Budgets map[string]float64 `json:"budgets"`
	// Capacities maps buffer name to the allocated capacity γ(b) in
	// containers.
	Capacities map[string]int `json:"capacities"`
	// Objective is the achieved weighted objective value (after rounding).
	Objective float64 `json:"objective"`
}

// Clone returns a deep copy of the configuration.
func (c *Config) Clone() *Config {
	data, err := json.Marshal(c)
	if err != nil {
		panic(fmt.Sprintf("taskgraph: clone marshal: %v", err)) // cannot happen
	}
	var out Config
	if err := json.Unmarshal(data, &out); err != nil {
		panic(fmt.Sprintf("taskgraph: clone unmarshal: %v", err))
	}
	return &out
}

// WriteFile writes the configuration as indented JSON.
func (c *Config) WriteFile(path string) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return fmt.Errorf("taskgraph: marshal: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// WriteFile writes the mapping as indented JSON.
func (m *Mapping) WriteFile(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("taskgraph: marshal mapping: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Validate rejects mappings whose numbers would poison downstream analysis
// or simulation: budgets must be finite and non-negative, capacities within
// [0, 2^31], and the objective finite.
func (m *Mapping) Validate() error {
	// Report in sorted-key order so the same bad mapping always names the
	// same offender.
	names := make([]string, 0, len(m.Budgets))
	for name := range m.Budgets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if b := m.Budgets[name]; !finite(b) || b < 0 {
			return fmt.Errorf("taskgraph: mapping budget for %q is invalid: %v", name, b)
		}
	}
	names = names[:0]
	for name := range m.Capacities {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if cap := m.Capacities[name]; cap < 0 || cap > maxIntField {
			return fmt.Errorf("taskgraph: mapping capacity for %q outside [0, 2^31]: %d", name, cap)
		}
	}
	if !finite(m.Objective) {
		return fmt.Errorf("taskgraph: mapping objective is not finite: %v", m.Objective)
	}
	return nil
}

// ParseMapping parses and validates a mapping from JSON bytes. It never
// panics, whatever the input.
func ParseMapping(data []byte) (*Mapping, error) {
	var m Mapping
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("taskgraph: parse mapping: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// ReadMappingFile parses and validates a mapping from a JSON file.
func ReadMappingFile(path string) (*Mapping, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := ParseMapping(data)
	if err != nil {
		return nil, fmt.Errorf("taskgraph: %s: %w", path, err)
	}
	return m, nil
}

// Parse parses and validates a configuration from JSON bytes. It never
// panics, whatever the input.
func Parse(data []byte) (*Config, error) {
	var c Config
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("taskgraph: parse: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// ReadFile parses a configuration from a JSON file and validates it.
func ReadFile(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("taskgraph: %s: %w", path, err)
	}
	return c, nil
}
