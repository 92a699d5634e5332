package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTradeFig2aCSV(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-experiment", "fig2a", "-csv"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 11 { // header + 10 capacities
		t.Fatalf("expected 11 CSV lines, got %d:\n%s", len(lines), out.String())
	}
	if !strings.HasPrefix(lines[0], "cap,budget") {
		t.Fatalf("bad header: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1,36.1078") {
		t.Fatalf("bad first row: %s", lines[1])
	}
	if !strings.HasPrefix(lines[10], "10,4") {
		t.Fatalf("bad last row: %s", lines[10])
	}
}

func TestTradeFig2bPlot(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-experiment", "fig2b"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out.String(), "Figure 2(b)") {
		t.Fatal("missing figure title")
	}
}

func TestTradeFig3CSV(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-experiment", "fig3", "-csv"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out.String(), "budget_wb") {
		t.Fatal("missing fig3 CSV header")
	}
}

func TestTradeParetoAndRuntime(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-experiment", "pareto"}, &out, &errb); code != 0 {
		t.Fatalf("pareto exit %d", code)
	}
	if !strings.Contains(out.String(), "Pareto frontier") {
		t.Fatal("missing pareto output")
	}
	out.Reset()
	if code := run(context.Background(), []string{"-experiment", "runtime"}, &out, &errb); code != 0 {
		t.Fatalf("runtime exit %d", code)
	}
	if !strings.Contains(out.String(), "solve time (ms)") {
		t.Fatal("missing runtime table")
	}
}

func TestTradeCompareAndAblation(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-experiment", "compare"}, &out, &errb); code != 0 {
		t.Fatalf("compare exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "budget-first") || !strings.Contains(out.String(), "infeasible") {
		t.Fatalf("comparison table incomplete:\n%s", out.String())
	}
	out.Reset()
	if code := run(context.Background(), []string{"-experiment", "ablation"}, &out, &errb); code != 0 {
		t.Fatalf("ablation exit %d", code)
	}
	if !strings.Contains(out.String(), "integer optimum") {
		t.Fatal("ablation table incomplete")
	}
}

func TestTradeUnknownExperiment(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-experiment", "bogus"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown experiment") {
		t.Fatal("missing error")
	}
}

// TestTradeFactorBackends runs the same experiment under every -factor
// backend; all three must succeed and produce the same reproduced figures
// (the backends agree far beyond the 4-digit table precision). Any other
// name, dense and densekkt included, exits 2 with the list of valid ones.
func TestTradeFactorBackends(t *testing.T) {
	var want string
	for _, factor := range []string{"auto", "sparse", "supernodal"} {
		var out, errb bytes.Buffer
		if code := run(context.Background(), []string{"-experiment", "fig2a", "-csv", "-factor", factor}, &out, &errb); code != 0 {
			t.Fatalf("factor %s: exit %d: %s", factor, code, errb.String())
		}
		if want == "" {
			want = out.String()
		} else if out.String() != want {
			t.Fatalf("factor %s output differs:\n%s\nwant:\n%s", factor, out.String(), want)
		}
	}
	for _, factor := range []string{"dense", "densekkt", "bogus"} {
		var out, errb bytes.Buffer
		if code := run(context.Background(), []string{"-experiment", "fig2a", "-factor", factor}, &out, &errb); code != 2 {
			t.Fatalf("factor %s: exit %d, want 2", factor, code)
		}
		if !strings.Contains(errb.String(), "unknown -factor") || !strings.Contains(errb.String(), "auto, sparse, or supernodal") {
			t.Fatalf("factor %s: error %q does not list the valid backends", factor, errb.String())
		}
	}
}

// TestTradeProfiles exercises the -cpuprofile/-memprofile flags and checks
// that both profile files come out non-empty.
func TestTradeProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-experiment", "runtime", "-cpuprofile", cpu, "-memprofile", mem}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}
