package dfmodel_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dfmodel"
	"repro/internal/mrate"
	"repro/internal/taskgraph"
)

// TestVerifyLatencyMatchesLatencyBound: Verify checks the latency
// constraints of a task graph on the SRDF graph it built for the period
// check, and its Verification is the one a fresh LatencyBound per constraint
// gives — with bounds that hold, that are tight, and that fail — on a
// single-rate and a multi-rate configuration.
func TestVerifyLatencyMatchesLatencyBound(t *testing.T) {
	for _, tc := range []struct {
		file string
		lcs  []taskgraph.LatencyConstraint // nil keeps the file's own
	}{
		{"latency_constrained.json", nil},
		{"downsampler.json", []taskgraph.LatencyConstraint{{From: "wa", To: "wb"}, {From: "wa", To: "wa"}, {From: "wb", To: "wb"}}},
	} {
		t.Run(tc.file, func(t *testing.T) {
			cfg, err := taskgraph.ReadFile("../../testdata/" + tc.file)
			if err != nil {
				t.Fatal(err)
			}
			var m *taskgraph.Mapping
			if cfg.MultiRate() {
				r, err := mrate.Solve(context.Background(), cfg)
				if err != nil || r.Status != core.StatusOptimal {
					t.Fatalf("mrate.Solve: %v %v", r, err)
				}
				m = r.Mapping
			} else {
				r, err := core.Solve(context.Background(), cfg, core.Options{})
				if err != nil || r.Status != core.StatusOptimal {
					t.Fatalf("core.Solve: %v %v", r, err)
				}
				m = r.Mapping
			}
			tg := cfg.Graphs[0]
			if tc.lcs != nil {
				tg.Latencies = tc.lcs
			}
			lcs := tg.Latencies
			lats := make([]float64, len(lcs))
			for k, lc := range lcs {
				if lats[k], err = dfmodel.LatencyBound(cfg, tg, m, lc.From, lc.To); err != nil {
					t.Fatal(err)
				}
			}
			tg.Latencies = nil
			base, err := dfmodel.Verify(cfg, m)
			if err != nil {
				t.Fatal(err)
			}
			for _, scale := range []float64{2, 1, 0.5} {
				tg.Latencies = make([]taskgraph.LatencyConstraint, len(lcs))
				want := *base
				want.Problems = append([]string(nil), base.Problems...)
				for k, lc := range lcs {
					lc.Bound = scale * lats[k]
					tg.Latencies[k] = lc
					if lats[k] > lc.Bound*(1+dfmodel.VerifyTol) {
						want.OK = false
						want.Problems = append(want.Problems,
							fmt.Sprintf("latency %s→%s: %.6g exceeds bound %.6g", lc.From, lc.To, lats[k], lc.Bound))
					}
				}
				got, err := dfmodel.Verify(cfg, m)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, &want) {
					t.Fatalf("bounds ×%v: Verify = %+v, want %+v", scale, got, &want)
				}
				if scale < 1 && got.OK {
					t.Fatalf("bounds ×%v: Verify passed latencies below the bound", scale)
				}
			}
		})
	}
}
