package socp

import (
	"bytes"
	"strings"
	"testing"
)

// TestTraceGoesToInjectedWriter: trace output follows Options.TraceOut, so
// parallel sweeps can hand every solve its own writer instead of interleaving
// on the process's stdout.
func TestTraceGoesToInjectedWriter(t *testing.T) {
	b := NewBuilder()
	x := b.AddVar()
	b.SetObjective(x, 1)
	b.AddNonNeg(Expr(-3).Plus(1, x))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sol, err := Solve(p, Options{Trace: true, TraceOut: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	out := buf.String()
	if !strings.Contains(out, "iter") {
		t.Fatalf("trace output %q lacks the iteration header", out)
	}
	if lines := strings.Count(out, "\n"); lines < sol.Iterations {
		t.Fatalf("trace has %d lines for %d iterations", lines, sol.Iterations)
	}
}
