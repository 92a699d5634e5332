package repro

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dfmodel"
	"repro/internal/gen"
	"repro/internal/mrate"
	"repro/internal/sim"
	"repro/internal/taskgraph"
)

// TestSystemMatrix drives the full pipeline — joint solve, conservative
// rounding, independent SRDF verification, cycle-accurate TDM simulation
// with per-firing dominance checks — across a matrix of topologies:
// chains, rings, shared processors, multi-job systems, multi-rate graphs,
// and latency-constrained instances.
func TestSystemMatrix(t *testing.T) {
	cases := []struct {
		name string
		cfg  *taskgraph.Config
	}{
		{"paper-T1-cap1", gen.PaperT1(1)},
		{"paper-T1-cap10", gen.PaperT1(10)},
		{"paper-T2-cap5", gen.PaperT2(5)},
		{"chain-8", gen.Chain(gen.ChainOptions{Tasks: 8})},
		{"chain-shared", gen.Chain(gen.ChainOptions{Tasks: 6, SharedProcessors: 3})},
		{"ring-5", gen.Ring(5, 3)},
		{"multijob-0", gen.RandomJobs(gen.RandomOptions{Seed: 0, Jobs: 3})},
		{"multijob-9", gen.RandomJobs(gen.RandomOptions{Seed: 9})},
		{"multirate-0", gen.RandomMultiRateChain(0, 3, 0.4)},
		{"multirate-5", gen.RandomMultiRateChain(5, 4, 0.4)},
	}
	// A latency-constrained variant.
	lat := gen.PaperT1(0)
	lat.Graphs[0].Latencies = []taskgraph.LatencyConstraint{{From: "wa", To: "wb", Bound: 50}}
	cases = append(cases, struct {
		name string
		cfg  *taskgraph.Config
	}{"latency-50", lat})

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var mapping *taskgraph.Mapping
			if tc.cfg.MultiRate() {
				r, err := mrate.Solve(context.Background(), tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if r.Status != core.StatusOptimal {
					t.Fatalf("status %v", r.Status)
				}
				if !r.Verification.OK {
					t.Fatalf("verification: %v", r.Verification.Problems)
				}
				mapping = r.Mapping
			} else {
				r, err := core.Solve(context.Background(), tc.cfg, core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if r.Status != core.StatusOptimal {
					t.Fatalf("status %v (solver %v)", r.Status, r.SolverStatus)
				}
				if !r.Verification.OK {
					t.Fatalf("verification: %v", r.Verification.Problems)
				}
				mapping = r.Mapping
			}

			res, err := sim.Run(tc.cfg, mapping, sim.Options{Firings: 80})
			if err != nil {
				t.Fatal(err)
			}
			if res.Deadlocked {
				t.Fatal("simulation deadlocked")
			}
			if err := assertDominance(tc.cfg, mapping, res); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// assertDominance checks the per-firing conservativeness bound for every
// task of every graph, handling both single-rate and expanded models.
func assertDominance(c *taskgraph.Config, m *taskgraph.Mapping, res *sim.Result) error {
	for _, tg := range c.Graphs {
		g, idx, err := dfmodel.BuildGraph(c, tg, m)
		if err != nil {
			return err
		}
		starts, err := g.StartTimes(tg.Period)
		if err != nil {
			return fmt.Errorf("graph %s: no PAS: %w", tg.Name, err)
		}
		for _, w := range tg.Tasks {
			copies := idx.TaskCopies[w.Name]
			if copies == nil {
				copies = []dfmodel.TaskActors{idx.Tasks[w.Name]}
			}
			q := len(copies)
			for k, done := range res.Tasks[w.Name].Done {
				cp := copies[k%q]
				bound := starts[cp.V2] + g.Actor(cp.V2).Duration + float64(k/q)*tg.Period
				if done > bound*(1+1e-6)+1e-6 {
					return fmt.Errorf("task %s firing %d completed at %v, model bound %v",
						w.Name, k+1, done, bound)
				}
			}
		}
	}
	return nil
}

// TestBaselinesOnMatrix: the two-phase baselines never beat the joint
// relaxation where all succeed, across the single-rate matrix.
func TestBaselinesOnMatrix(t *testing.T) {
	for _, cfg := range []*taskgraph.Config{
		gen.PaperT1(0), gen.PaperT2(0),
		gen.Chain(gen.ChainOptions{Tasks: 5}),
		gen.RandomJobs(gen.RandomOptions{Seed: 4}),
	} {
		joint, err := core.Solve(context.Background(), cfg, core.Options{})
		if err != nil || joint.Status != core.StatusOptimal {
			t.Fatalf("%s: joint %v %v", cfg.Name, joint.Status, err)
		}
		for _, pol := range []core.BudgetPolicy{core.BudgetMinimalRate, core.BudgetFairShare} {
			bf, err := core.TwoPhaseBudgetFirst(context.Background(), cfg, pol, core.Options{})
			if err != nil {
				t.Fatalf("%s/%v: %v", cfg.Name, pol, err)
			}
			if bf.Status != core.StatusOptimal {
				continue // baseline false negatives are expected elsewhere
			}
			if joint.ContinuousObjective > bf.Mapping.Objective+1e-4 {
				t.Fatalf("%s/%v: joint relaxation %v worse than baseline %v",
					cfg.Name, pol, joint.ContinuousObjective, bf.Mapping.Objective)
			}
		}
	}
}
