package repro

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/mrate"
	"repro/internal/taskgraph"
)

// TestTestdataConfigsSolve loads every shipped configuration file, solves it
// with the appropriate solver, and verifies the result — the files double as
// documentation of the JSON format and as integration fixtures.
func TestTestdataConfigsSolve(t *testing.T) {
	files, err := filepath.Glob("testdata/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 4 {
		t.Fatalf("expected shipped configs, found %d", len(files))
	}
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			cfg, err := taskgraph.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if cfg.MultiRate() {
				r, err := mrate.Solve(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if r.Status != core.StatusOptimal {
					t.Fatalf("status %v", r.Status)
				}
				if !r.Verification.OK {
					t.Fatalf("verification: %v", r.Verification.Problems)
				}
				return
			}
			r, err := core.Solve(context.Background(), cfg, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if r.Status != core.StatusOptimal {
				t.Fatalf("status %v", r.Status)
			}
			if !r.Verification.OK {
				t.Fatalf("verification: %v", r.Verification.Problems)
			}
		})
	}
}
