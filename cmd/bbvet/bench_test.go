package main

import (
	"testing"

	"repro/internal/analysis"
)

// BenchmarkBbvetSelfRun measures whole-repo analysis passes. CI runs it
// once per workflow run, as a smoke test.
//
//   - cold: a fresh loader, full type-check of every package, all
//     analyzers including the interprocedural summaries, no cache.
//   - warm: the same run answered from a pre-populated incremental cache —
//     import-clause parsing and content hashing only, no type-checking.
//     The cache layer's contract is warm ≤ 25% of cold; in practice it is
//     under 1%.
func BenchmarkBbvetSelfRun(b *testing.B) {
	analyzers, err := analysis.ByName("")
	if err != nil {
		b.Fatal(err)
	}
	selfRun := func(b *testing.B, cacheDir string) {
		b.Helper()
		diags, err := CheckCached("../..", nil, analyzers, cacheDir)
		if err != nil {
			b.Fatal(err)
		}
		if len(diags) != 0 {
			b.Fatalf("self-run is not clean: %d findings", len(diags))
		}
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			selfRun(b, "")
		}
	})
	b.Run("warm", func(b *testing.B) {
		cacheDir := b.TempDir()
		selfRun(b, cacheDir) // populate
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			selfRun(b, cacheDir)
		}
	})
}
