package taskgraph

import (
	"os"
	"path/filepath"
	"testing"
)

// validConfig returns a well-formed two-task producer-consumer configuration
// (the paper's T1).
func validConfig() *Config {
	return &Config{
		Name: "t1",
		Processors: []Processor{
			{Name: "p1", Replenishment: 40},
			{Name: "p2", Replenishment: 40},
		},
		Memories:    []Memory{{Name: "m1", Capacity: 100}},
		Granularity: 0.001,
		Graphs: []*TaskGraph{{
			Name:   "T1",
			Period: 10,
			Tasks: []Task{
				{Name: "wa", Processor: "p1", WCET: 1},
				{Name: "wb", Processor: "p2", WCET: 1},
			},
			Buffers: []Buffer{
				{Name: "bab", From: "wa", To: "wb", Memory: "m1"},
			},
		}},
	}
}

func TestValidateOK(t *testing.T) {
	if err := validConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"no graphs", func(c *Config) { c.Graphs = nil }},
		{"negative granularity", func(c *Config) { c.Granularity = -1 }},
		{"empty processor name", func(c *Config) { c.Processors[0].Name = "" }},
		{"duplicate processor", func(c *Config) { c.Processors[1].Name = "p1" }},
		{"bad replenishment", func(c *Config) { c.Processors[0].Replenishment = 0 }},
		{"overhead too large", func(c *Config) { c.Processors[0].Overhead = 40 }},
		{"negative overhead", func(c *Config) { c.Processors[0].Overhead = -1 }},
		{"empty memory name", func(c *Config) { c.Memories[0].Name = "" }},
		{"duplicate memory", func(c *Config) { c.Memories = append(c.Memories, Memory{Name: "m1", Capacity: 5}) }},
		{"negative memory capacity", func(c *Config) { c.Memories[0].Capacity = -1 }},
		{"empty graph name", func(c *Config) { c.Graphs[0].Name = "" }},
		{"duplicate graph", func(c *Config) { c.Graphs = append(c.Graphs, c.Graphs[0]) }},
		{"bad period", func(c *Config) { c.Graphs[0].Period = 0 }},
		{"no tasks", func(c *Config) { c.Graphs[0].Tasks = nil }},
		{"empty task name", func(c *Config) { c.Graphs[0].Tasks[0].Name = "" }},
		{"duplicate task", func(c *Config) { c.Graphs[0].Tasks[1].Name = "wa" }},
		{"unknown processor", func(c *Config) { c.Graphs[0].Tasks[0].Processor = "nope" }},
		{"bad wcet", func(c *Config) { c.Graphs[0].Tasks[0].WCET = 0 }},
		{"negative budget weight", func(c *Config) { c.Graphs[0].Tasks[0].BudgetWeight = -2 }},
		{"empty buffer name", func(c *Config) { c.Graphs[0].Buffers[0].Name = "" }},
		{"unknown producer", func(c *Config) { c.Graphs[0].Buffers[0].From = "nope" }},
		{"unknown consumer", func(c *Config) { c.Graphs[0].Buffers[0].To = "nope" }},
		{"unknown memory", func(c *Config) { c.Graphs[0].Buffers[0].Memory = "nope" }},
		{"negative container size", func(c *Config) { c.Graphs[0].Buffers[0].ContainerSize = -1 }},
		{"negative initial tokens", func(c *Config) { c.Graphs[0].Buffers[0].InitialTokens = -1 }},
		{"negative size weight", func(c *Config) { c.Graphs[0].Buffers[0].SizeWeight = -1 }},
		{"negative max containers", func(c *Config) { c.Graphs[0].Buffers[0].MaxContainers = -1 }},
		{"min above max", func(c *Config) {
			c.Graphs[0].Buffers[0].MaxContainers = 2
			c.Graphs[0].Buffers[0].MinContainers = 3
		}},
		{"initial tokens above max", func(c *Config) {
			c.Graphs[0].Buffers[0].MaxContainers = 2
			c.Graphs[0].Buffers[0].InitialTokens = 3
		}},
		{"duplicate buffer", func(c *Config) {
			c.Graphs[0].Buffers = append(c.Graphs[0].Buffers, c.Graphs[0].Buffers[0])
		}},
	}
	for _, tc := range cases {
		c := validConfig()
		tc.mut(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		}
	}
}

func TestLookups(t *testing.T) {
	c := validConfig()
	if p, ok := c.Processor("p2"); !ok || p.Replenishment != 40 {
		t.Fatal("Processor lookup failed")
	}
	if _, ok := c.Processor("zz"); ok {
		t.Fatal("phantom processor found")
	}
	if task, ok := c.Graphs[0].Task("wb"); !ok || task.Processor != "p2" {
		t.Fatal("Task lookup failed")
	}
	if _, ok := c.Graphs[0].Task("zz"); ok {
		t.Fatal("phantom task found")
	}
}

func TestTasksOn(t *testing.T) {
	c := validConfig()
	if got := c.TasksOn("p1"); len(got) != 1 || got[0] != "wa" {
		t.Fatalf("TasksOn(p1) = %v", got)
	}
	if got := c.TasksOn("zz"); len(got) != 0 {
		t.Fatalf("TasksOn(zz) = %v", got)
	}
}

func TestEffectiveDefaults(t *testing.T) {
	b := &Buffer{}
	if b.EffectiveContainerSize() != 1 {
		t.Fatal("default container size != 1")
	}
	b.ContainerSize = 3
	if b.EffectiveContainerSize() != 3 {
		t.Fatal("explicit container size ignored")
	}
	task := &Task{}
	if task.EffectiveBudgetWeight() != 1 {
		t.Fatal("default budget weight != 1")
	}
	task.BudgetWeight = 0.5
	if task.EffectiveBudgetWeight() != 0.5 {
		t.Fatal("explicit budget weight ignored")
	}
	if b.EffectiveSizeWeight() != 1 {
		t.Fatal("default size weight != 1")
	}
	c := &Config{}
	if c.EffectiveGranularity() != DefaultGranularity {
		t.Fatal("default granularity wrong")
	}
	c.Granularity = 0.5
	if c.EffectiveGranularity() != 0.5 {
		t.Fatal("explicit granularity ignored")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cfg.json")
	c := validConfig()
	if err := c.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != c.Name || len(back.Graphs) != 1 || back.Graphs[0].Period != 10 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if back.Graphs[0].Tasks[1].Name != "wb" || back.Graphs[0].Buffers[0].From != "wa" {
		t.Fatal("round trip lost graph structure")
	}
}

func TestReadFileErrors(t *testing.T) {
	if _, err := ReadFile("/nonexistent/path.json"); err == nil {
		t.Fatal("missing file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(bad); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	invalid := filepath.Join(dir, "invalid.json")
	if err := os.WriteFile(invalid, []byte(`{"graphs":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(invalid); err == nil {
		t.Fatal("semantically invalid config accepted")
	}
}

func TestRateHelpers(t *testing.T) {
	b := &Buffer{}
	if b.EffectiveProd() != 1 || b.EffectiveCons() != 1 {
		t.Fatal("default rates should be 1")
	}
	b.Prod, b.Cons = 3, 2
	if b.EffectiveProd() != 3 || b.EffectiveCons() != 2 {
		t.Fatal("explicit rates ignored")
	}
}

func TestMultiRateDetection(t *testing.T) {
	c := validConfig()
	if c.MultiRate() {
		t.Fatal("single-rate config reported multi-rate")
	}
	c.Graphs[0].Buffers[0].Cons = 4
	if !c.MultiRate() {
		t.Fatal("multi-rate config not detected")
	}
}

func TestValidateRejectsNegativeRates(t *testing.T) {
	c := validConfig()
	c.Graphs[0].Buffers[0].Prod = -1
	if err := c.Validate(); err == nil {
		t.Fatal("negative production rate accepted")
	}
}

func TestConfigClone(t *testing.T) {
	c := validConfig()
	cl := c.Clone()
	cl.Graphs[0].Tasks[0].WCET = 99
	cl.Processors[0].Replenishment = 1
	if c.Graphs[0].Tasks[0].WCET == 99 || c.Processors[0].Replenishment == 1 {
		t.Fatal("Clone shares state")
	}
}

func TestMappingFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.json")
	m := &Mapping{
		Budgets:    map[string]float64{"wa": 4.25},
		Capacities: map[string]int{"bab": 7},
		Objective:  11.5,
	}
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMappingFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Budgets["wa"] != 4.25 || back.Capacities["bab"] != 7 || back.Objective != 11.5 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if _, err := ReadMappingFile("/nonexistent.json"); err == nil {
		t.Fatal("missing mapping file accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMappingFile(bad); err == nil {
		t.Fatal("malformed mapping accepted")
	}
}
