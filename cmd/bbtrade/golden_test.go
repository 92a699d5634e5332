package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenAll is the committed output of `bbtrade -experiment all` with the
// wall-clock columns masked (see maskTimings). Every other byte — budgets,
// capacities, iteration counts, plots, statuses — is deterministic, so the
// comparison pins the reproduced paper figures across solver refactors.
var goldenAll = filepath.Join("testdata", "experiment_all.golden")

// timeColumn is the header of the only nondeterministic column the
// experiments print.
const timeColumn = "solve time (ms)"

// maskTimings replaces every data cell of each "solve time (ms)" column
// with a fixed marker. A table's data rows follow its header and dashed
// separator and end at the first blank line.
func maskTimings(out string) string {
	lines := strings.Split(out, "\n")
	for i := 0; i < len(lines); i++ {
		col := strings.Index(lines[i], timeColumn)
		if col < 0 {
			continue
		}
		for i += 2; i < len(lines) && lines[i] != ""; i++ {
			if len(lines[i]) > col {
				lines[i] = lines[i][:col] + "<masked>"
			}
		}
	}
	return strings.Join(lines, "\n")
}

// TestExperimentAllGolden reproduces every figure and table and compares
// the output byte for byte with the golden file, timing columns masked.
func TestExperimentAllGolden(t *testing.T) {
	want, err := os.ReadFile(goldenAll)
	if err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run(context.Background(), []string{"-experiment", "all"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	got := maskTimings(out.String())
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs from %s:\n got: %q\nwant: %q", i+1, goldenAll, gl[i], wl[i])
		}
	}
	t.Fatalf("output has %d lines, %s has %d", len(gl), goldenAll, len(wl))
}
