package srdf_test

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dfmodel"
	"repro/internal/gen"
	"repro/internal/srdf"
	"repro/internal/taskgraph"
)

// solvedModel is the SRDF model of one task graph under a mapping that
// core.Solve produced, with the graph's required period.
type solvedModel struct {
	name   string
	g      *srdf.Graph
	period float64
}

var (
	corpusOnce sync.Once
	corpus     []solvedModel
	corpusErr  error
)

// randomJobs is the multi-job parameterization of the ladder census in
// internal/core: every knob of gen.RandomJobs varies with the seed.
func randomJobs(seed int64) *taskgraph.Config {
	return gen.RandomJobs(gen.RandomOptions{
		Seed:       seed,
		Jobs:       int(1 + seed%8),
		MinTasks:   2,
		MaxTasks:   int(3 + seed%10),
		Processors: int(2 + seed%7),
		LoadFactor: 0.2 + 0.1*float64(seed%6),
	})
}

// solvedModels returns the models of the mappings core.Solve finds on a gen
// corpus: T1 and T2 over buffer caps 1..10, RandomJobs seeds 1..20, chains
// of 100 and 380 tasks, a 200-task random DAG, and the feasibility-boundary
// sweeps of RandomJobs seed 19 over caps 15..17 and seed 58 over caps
// 25..27 (EXPERIMENTS.md §P8), of which only the optimal points have a
// mapping. It is built once per test binary.
func solvedModels(t *testing.T) []solvedModel {
	t.Helper()
	corpusOnce.Do(func() { corpus, corpusErr = buildCorpus() })
	if corpusErr != nil {
		t.Fatal(corpusErr)
	}
	return corpus
}

func buildCorpus() ([]solvedModel, error) {
	ctx := context.Background()
	var out []solvedModel
	add := func(name string, cfg *taskgraph.Config, r *core.Result) error {
		if r == nil || r.Status != core.StatusOptimal {
			return nil
		}
		for _, tg := range cfg.Graphs {
			g, _, err := dfmodel.BuildGraph(cfg, tg, r.Mapping)
			if err != nil {
				return fmt.Errorf("%s graph %s: %v", name, tg.Name, err)
			}
			out = append(out, solvedModel{name: name + "/" + tg.Name, g: g, period: tg.Period})
		}
		return nil
	}
	sweep := func(name string, cfg *taskgraph.Config, caps []int, mustSolve ...int) error {
		points, err := core.SweepBufferCaps(ctx, cfg, nil, caps, core.Options{})
		if err != nil {
			return fmt.Errorf("%s sweep: %v", name, err)
		}
		solved := map[int]bool{}
		for _, p := range points {
			if p.Result != nil && p.Result.Status == core.StatusOptimal {
				solved[p.Cap] = true
			}
			if err := add(fmt.Sprintf("%s cap %d", name, p.Cap), cfg, p.Result); err != nil {
				return err
			}
		}
		for _, c := range mustSolve {
			if !solved[c] {
				return fmt.Errorf("%s cap %d did not solve to optimality", name, c)
			}
		}
		return nil
	}
	caps := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if err := sweep("T1", gen.PaperT1(0), caps); err != nil {
		return nil, err
	}
	if err := sweep("T2", gen.PaperT2(0), caps); err != nil {
		return nil, err
	}
	if err := sweep("random19", randomJobs(19), []int{15, 16, 17}, 17); err != nil {
		return nil, err
	}
	if err := sweep("random58", randomJobs(58), []int{25, 26, 27}, 27); err != nil {
		return nil, err
	}
	cold := []struct {
		name string
		cfg  *taskgraph.Config
	}{
		{"chain100", gen.Chain(gen.ChainOptions{Tasks: 100})},
		{"chain380", gen.Chain(gen.ChainOptions{Tasks: 380})},
		{"dag200", gen.RandomDAG(gen.DAGOptions{Seed: 1, Tasks: 200})},
	}
	for seed := int64(1); seed <= 20; seed++ {
		cold = append(cold, struct {
			name string
			cfg  *taskgraph.Config
		}{fmt.Sprintf("random%d", seed), randomJobs(seed)})
	}
	for _, c := range cold {
		r, err := core.Solve(ctx, c.cfg, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: %v", c.name, err)
		}
		if err := add(c.name, c.cfg, r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// TestHowardAgreesWithLawlerOnSolvedModels: on the models of real solved
// mappings, Howard's MCM (what Verify reports) matches the Lawler oracle to
// 1e-9 relative.
func TestHowardAgreesWithLawlerOnSolvedModels(t *testing.T) {
	models := solvedModels(t)
	if len(models) < 40 {
		t.Fatalf("corpus has %d models, want at least 40", len(models))
	}
	for _, m := range models {
		lawler, err := m.g.MinPeriod()
		if err != nil {
			t.Fatalf("%s lawler: %v", m.name, err)
		}
		howard, err := m.g.MinPeriodHoward()
		if err != nil {
			t.Fatalf("%s howard: %v", m.name, err)
		}
		if !relClose(lawler, howard, 1e-9) {
			t.Fatalf("%s (%d actors): lawler %v != howard %v", m.name, m.g.NumActors(), lawler, howard)
		}
	}
}

// TestVerifyDecisionMatchesLawler: the period decision Verify makes, one
// strict Bellman-Ford test at µ·(1+VerifyTol), agrees with the rule it
// replaced, Lawler's MCM ≤ µ·(1+VerifyTol). It is checked at each graph's
// required period and at periods 1e-5 relative above and below the model's
// MCM, where the two rules must both flip.
func TestVerifyDecisionMatchesLawler(t *testing.T) {
	for _, m := range solvedModels(t) {
		lawler, err := m.g.MinPeriod()
		if err != nil {
			t.Fatalf("%s lawler: %v", m.name, err)
		}
		periods := []float64{m.period}
		if lawler > 0 {
			periods = append(periods, lawler*(1-1e-5), lawler*(1+1e-5))
		}
		for _, mu := range periods {
			limit := mu * (1 + dfmodel.VerifyTol)
			if got, want := m.g.FeasibleExact(limit), lawler <= limit; got != want {
				t.Fatalf("%s at µ=%v: Bellman-Ford says %v, Lawler (%v) says %v", m.name, mu, got, lawler, want)
			}
		}
	}
}
