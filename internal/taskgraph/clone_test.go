package taskgraph_test

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/taskgraph"
)

// cloneConfigs returns the generator families and every configuration
// under the repository's testdata, keyed by a name for failure messages.
func cloneConfigs(t *testing.T) map[string]*taskgraph.Config {
	t.Helper()
	cfgs := map[string]*taskgraph.Config{
		"T1":         gen.PaperT1(4),
		"T2":         gen.PaperT2(0),
		"chain":      gen.Chain(gen.ChainOptions{Tasks: 20, SharedProcessors: 3, MaxContainers: 5}),
		"fanout":     gen.FanOut(gen.FanOutOptions{Width: 8}),
		"dag":        gen.RandomDAG(gen.DAGOptions{Seed: 5, Tasks: 30}),
		"ring":       gen.Ring(5, 2),
		"randomjobs": gen.RandomJobs(gen.RandomOptions{Seed: 7, Jobs: 3}),
		"multirate":  gen.RandomMultiRateChain(11, 5, 0),
		// Nil and empty slices and a nil graph must come back as they were.
		"edges": {Processors: []taskgraph.Processor{}, Graphs: []*taskgraph.TaskGraph{nil, {Name: "g", Tasks: []taskgraph.Task{}}}},
	}
	files, err := filepath.Glob("../../testdata/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("testdata configurations: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		c, err := taskgraph.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		cfgs[filepath.Base(f)] = c
	}
	return cfgs
}

func marshal(t *testing.T, c *taskgraph.Config) []byte {
	t.Helper()
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCloneMarshalsLikeOriginal: a clone is the same configuration, field
// for field, so it marshals to the same JSON.
func TestCloneMarshalsLikeOriginal(t *testing.T) {
	for name, c := range cloneConfigs(t) {
		if got, want := marshal(t, c.Clone()), marshal(t, c); !bytes.Equal(got, want) {
			t.Errorf("%s: clone marshals to\n%s\nwant\n%s", name, got, want)
		}
	}
}

// TestCloneSharesNothing: writing to every processor, memory, graph, task,
// buffer and latency bound of a clone leaves the original unchanged.
func TestCloneSharesNothing(t *testing.T) {
	for name, c := range cloneConfigs(t) {
		before := marshal(t, c)
		cl := c.Clone()
		cl.Name += "'"
		cl.Granularity++
		for i := range cl.Processors {
			p := &cl.Processors[i]
			p.Name += "'"
			p.Replenishment++
			p.Overhead++
		}
		for i := range cl.Memories {
			cl.Memories[i].Name += "'"
			cl.Memories[i].Capacity++
		}
		for _, tg := range cl.Graphs {
			if tg == nil {
				continue
			}
			tg.Name += "'"
			tg.Period++
			for i := range tg.Tasks {
				w := &tg.Tasks[i]
				w.Name += "'"
				w.Processor += "'"
				w.WCET++
				w.BudgetWeight++
			}
			for i := range tg.Buffers {
				b := &tg.Buffers[i]
				b.Name += "'"
				b.From += "'"
				b.MaxContainers++
				b.MinContainers++
				b.InitialTokens++
				b.Prod++
			}
			for i := range tg.Latencies {
				tg.Latencies[i].To += "'"
				tg.Latencies[i].Bound++
			}
		}
		cl.Graphs[0] = &taskgraph.TaskGraph{Name: "replaced"}
		if after := marshal(t, c); !bytes.Equal(after, before) {
			t.Errorf("%s: writing to the clone changed the original:\n%s\nwas\n%s", name, after, before)
		}
	}
}
