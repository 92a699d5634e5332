package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/socp"
	"repro/internal/taskgraph"
)

// cacheRaceConfigs builds the serving mix the shared pattern cache sees in
// bbserve: several instances of the SAME topology with different numeric
// parameters (they share one cache pattern and hammer the same pooled
// solve spaces), a cap family whose members differ only in h, plus
// structurally distinct topologies (each with its own pattern, exercising
// the cache's per-pattern isolation).
func cacheRaceConfigs() []*taskgraph.Config {
	base := gen.Chain(gen.ChainOptions{Tasks: 10})
	configs := []*taskgraph.Config{base}
	for _, scale := range []float64{1.25, 1.5, 2} {
		c := base.Clone()
		for _, tg := range c.Graphs {
			for i := range tg.Tasks {
				tg.Tasks[i].WCET *= scale
			}
		}
		configs = append(configs, c)
	}
	// A cap family: one G pattern, other cap rows of h at every cap, as
	// the points of a sweep.
	for _, cap := range []int{3, 4, 6} {
		configs = append(configs, gen.Chain(gen.ChainOptions{Tasks: 10, MaxContainers: cap}))
	}
	configs = append(configs,
		gen.FanOut(gen.FanOutOptions{Width: 6}),
		gen.RandomDAG(gen.DAGOptions{Seed: 11, Tasks: 12}),
	)
	return configs
}

// TestPatternCacheConcurrentBitIdentical is the concurrency contract of the
// shared pattern cache, pinned under the race detector: many goroutines
// solving same-pattern and distinct-pattern instances through ONE cache
// produce results bit-identical to serial, uncached solves. The cache may
// only change where the solver's buffers come from — never any computed
// value, under any interleaving.
func TestPatternCacheConcurrentBitIdentical(t *testing.T) {
	configs := cacheRaceConfigs()
	uncached := Options{SkipVerification: true, NoPatternCache: true}

	want := make([]*Result, len(configs))
	for i, cfg := range configs {
		res, err := Solve(context.Background(), cfg, uncached)
		if err != nil {
			t.Fatalf("baseline %d: %v", i, err)
		}
		if res.Status != StatusOptimal {
			t.Fatalf("baseline %d: status %v", i, res.Status)
		}
		want[i] = res
	}

	const goroutines, rounds = 8, 3
	shared := socp.NewPatternCache()
	cached := Options{SkipVerification: true, Solver: socp.Options{Cache: shared}}
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Stagger the starting config per goroutine so same-pattern
				// collisions and distinct-pattern interleavings both happen.
				for k := range configs {
					i := (g + k) % len(configs)
					res, err := Solve(context.Background(), configs[i], cached)
					if err != nil {
						errs[g] = err
						return
					}
					if err := sameBits(res, want[i]); err != nil {
						errs[g] = err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	if hits, misses := shared.Stats(); hits == 0 || misses == 0 {
		t.Fatalf("cache hits=%d misses=%d; the test did not actually share patterns", hits, misses)
	}
}

// sameBits compares two results for bitwise identity of every numeric
// output the solver computes.
func sameBits(got, want *Result) error {
	if got.Status != want.Status || got.SolverIterations != want.SolverIterations {
		return fmt.Errorf("status/iterations %v/%d vs %v/%d",
			got.Status, got.SolverIterations, want.Status, want.SolverIterations)
	}
	// Exact float comparison: bitwise-identity is the property under test.
	if got.ContinuousObjective != want.ContinuousObjective {
		return fmt.Errorf("objective %v != %v", got.ContinuousObjective, want.ContinuousObjective)
	}
	for k, v := range want.ContinuousBudgets {
		// Exact float comparison: bitwise-identity is the property under test.
		if got.ContinuousBudgets[k] != v {
			return fmt.Errorf("budget %s: %v != %v", k, got.ContinuousBudgets[k], v)
		}
	}
	for k, v := range want.ContinuousDeltas {
		// Exact float comparison: bitwise-identity is the property under test.
		if got.ContinuousDeltas[k] != v {
			return fmt.Errorf("delta %s: %v != %v", k, got.ContinuousDeltas[k], v)
		}
	}
	return nil
}
