package main

import (
	"testing"

	"repro/internal/analysis"
)

// BenchmarkBbvetSelfRun measures a cold whole-repo analysis pass: a fresh
// loader, a full type-check of every package and all analyzers, including
// the interprocedural summaries.
func BenchmarkBbvetSelfRun(b *testing.B) {
	analyzers, err := analysis.ByName("")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			diags, err := Check("../..", nil, analyzers)
			if err != nil {
				b.Fatal(err)
			}
			if len(diags) != 0 {
				b.Fatalf("self-run is not clean: %d findings", len(diags))
			}
		}
	})
}
