package main

import (
	"testing"

	"repro/internal/analysis"
)

// BenchmarkBbvetSelfRun measures a whole-repo analysis pass: a fresh
// loader, a full type-check of every module package and all analyzers. The
// standard library is type-checked from source once per process (every
// Loader shares it), so only the first iteration pays for it.
func BenchmarkBbvetSelfRun(b *testing.B) {
	analyzers, err := analysis.ByName("")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		diags, err := Check("../..", nil, analyzers)
		if err != nil {
			b.Fatal(err)
		}
		if len(diags) != 0 {
			b.Fatalf("self-run is not clean: %d findings", len(diags))
		}
	}
}
