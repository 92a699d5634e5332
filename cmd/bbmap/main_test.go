package main

import (
	"bytes"
	"context"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/taskgraph"
)

func writeConfig(t *testing.T, c *taskgraph.Config) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cfg.json")
	if err := c.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunJoint(t *testing.T) {
	path := writeConfig(t, gen.PaperT1(4))
	var out, errb bytes.Buffer
	mapPath := filepath.Join(t.TempDir(), "m.json")
	code := run(context.Background(), []string{"-config", path, "-out", mapPath}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "status: optimal") {
		t.Fatalf("missing status:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "21.83") {
		t.Fatalf("budget value not reported:\n%s", out.String())
	}
	m, err := taskgraph.ReadMappingFile(mapPath)
	if err != nil {
		t.Fatal(err)
	}
	if m.Capacities["bab"] != 4 {
		t.Fatalf("written mapping wrong: %+v", m)
	}
	// The per-graph min periods come from a map; the report must print
	// them in name order on every run, whatever order the map yields.
	multijob := filepath.Join("..", "..", "testdata", "multijob.json")
	for i := 0; i < 100; i++ {
		out.Reset()
		if code := run(context.Background(), []string{"-config", multijob}, &out, &errb); code != 0 {
			t.Fatalf("multijob: exit %d: %s", code, errb.String())
		}
		var graphs []string
		for _, line := range strings.Split(out.String(), "\n") {
			if g, ok := strings.CutPrefix(line, "  graph "); ok && strings.Contains(g, "model min period") {
				graphs = append(graphs, g)
			}
		}
		if len(graphs) != 2 || !slices.IsSorted(graphs) {
			t.Fatalf("run %d: min-period lines %q, want both graphs in name order", i, graphs)
		}
	}
}

func TestRunBudgetFirst(t *testing.T) {
	path := writeConfig(t, gen.PaperT1(0))
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-config", path, "-method", "budget-first"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "status: optimal") {
		t.Fatal("budget-first did not succeed")
	}
	// Fair-share variant.
	out.Reset()
	if code := run(context.Background(), []string{"-config", path, "-method", "budget-first", "-policy", "fair-share"}, &out, &errb); code != 0 {
		t.Fatalf("fair-share exit %d", code)
	}
}

func TestRunBufferFirst(t *testing.T) {
	path := writeConfig(t, gen.PaperT1(5))
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-config", path, "-method", "buffer-first", "-quiet"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	// Buffer-first takes every capacity from the buffer's maxContainers, so
	// a configuration that leaves one unset fails and names the buffer.
	errb.Reset()
	multijob := filepath.Join("..", "..", "testdata", "multijob.json")
	if code := run(context.Background(), []string{"-config", multijob, "-method", "buffer-first"}, &out, &errb); code != 1 {
		t.Fatalf("multijob: exit %d, want 1", code)
	}
	if want := "bbmap: core: buffer-first baseline needs a capacity for buffer \"j0b0\"\n"; errb.String() != want {
		t.Fatalf("multijob: stderr %q, want %q", errb.String(), want)
	}
}

func TestRunInfeasibleExitCode(t *testing.T) {
	c := gen.PaperT1(0)
	c.Graphs[0].Period = 0.5
	path := writeConfig(t, c)
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-config", path}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(out.String(), "infeasible") {
		t.Fatalf("missing infeasible status:\n%s", out.String())
	}
}

func TestRunBinding(t *testing.T) {
	c := gen.PaperT1(1)
	c.Graphs[0].Period = 4.2
	c.Graphs[0].Tasks[0].Processor = "p1"
	c.Graphs[0].Tasks[1].Processor = "p1" // infeasible binding; search must fix it
	path := writeConfig(t, c)
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-config", path, "-bind", "exhaustive", "-quiet"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "binding search") {
		t.Fatal("binding report missing")
	}
}

func TestRunUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), nil, &out, &errb); code != 2 {
		t.Fatalf("missing -config: exit %d", code)
	}
	path := writeConfig(t, gen.PaperT1(0))
	if code := run(context.Background(), []string{"-config", path, "-method", "bogus"}, &out, &errb); code != 2 {
		t.Fatalf("bad method: exit %d", code)
	}
	if code := run(context.Background(), []string{"-config", path, "-method", "budget-first", "-policy", "bogus"}, &out, &errb); code != 2 {
		t.Fatalf("bad policy: exit %d", code)
	}
	if code := run(context.Background(), []string{"-config", path, "-bind", "bogus"}, &out, &errb); code != 2 {
		t.Fatalf("bad bind: exit %d", code)
	}
	if code := run(context.Background(), []string{"-config", "/nonexistent.json"}, &out, &errb); code != 1 {
		t.Fatalf("missing file: exit %d", code)
	}
}

// TestReportLabelsMethodCounts checks that the report names the count of
// the cone solve that ran and prints "-" for relaxed values the method never
// computed: budget-first relaxes only the buffer tokens, buffer-first only
// the budgets, and joint relaxes both.
func TestReportLabelsMethodCounts(t *testing.T) {
	for _, tc := range []struct {
		name, config, method string
		status               string
		budgets, tokens      bool // relaxed columns filled
	}{
		{"budget-first", filepath.Join("..", "..", "testdata", "multijob.json"), "budget-first", "interior-point iterations)", false, true},
		{"buffer-first", writeConfig(t, gen.PaperT1(5)), "buffer-first", "interior-point iterations)", true, false},
		{"joint", writeConfig(t, gen.PaperT1(5)), "joint", "interior-point iterations)", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(context.Background(), []string{"-config", tc.config, "-method", tc.method}, &out, &errb); code != 0 {
				t.Fatalf("exit %d: %s", code, errb.String())
			}
			text := out.String()
			first, _, _ := strings.Cut(text, "\n")
			if !strings.Contains(first, tc.status) {
				t.Fatalf("status line %q, want it to contain %q", first, tc.status)
			}
			cfg, err := taskgraph.ReadFile(tc.config)
			if err != nil {
				t.Fatal(err)
			}
			// The relaxed column is the last one of every task and buffer row.
			last := map[string]string{}
			for _, line := range strings.Split(text, "\n") {
				if f := strings.Fields(line); len(f) == 4 {
					last[f[0]] = f[3]
				}
			}
			for _, tg := range cfg.Graphs {
				for _, w := range tg.Tasks {
					if got := last[w.Name]; got == "" || (got == "-") == tc.budgets || got == "0" {
						t.Errorf("task %s: relaxed value %q, want filled %v", w.Name, got, tc.budgets)
					}
				}
				for _, b := range tg.Buffers {
					if got := last[b.Name]; got == "" || (got == "-") == tc.tokens || got == "0" {
						t.Errorf("buffer %s: relaxed tokens %q, want filled %v", b.Name, got, tc.tokens)
					}
				}
			}
		})
	}
}

// TestRunInfeasibleStatusLine checks that the status line of a failed
// flow names a solver status only when the cone solver ran. Budget-first's
// phase 1 rejects fair-share budgets below the rate minimum (twelve tasks
// on one processor) before any solve; at buffer cap 4, rate-minimal budgets
// reach phase 2, whose program the solver proves infeasible.
func TestRunInfeasibleStatusLine(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  *taskgraph.Config
		args []string
		want string
	}{
		{"phase 1", gen.Chain(gen.ChainOptions{Tasks: 12, SharedProcessors: 1, Period: 10}),
			[]string{"-policy", "fair-share"}, "status: infeasible\n"},
		{"phase 2", gen.PaperT1(4), nil, "status: infeasible (solver: primal infeasible)\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-config", writeConfig(t, tc.cfg), "-method", "budget-first"}, tc.args...)
			var out, errb bytes.Buffer
			if code := run(context.Background(), args, &out, &errb); code != 1 {
				t.Fatalf("exit %d, want 1: %s", code, errb.String())
			}
			if out.String() != tc.want {
				t.Fatalf("output %q, want %q", out.String(), tc.want)
			}
		})
	}
}
