package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/socp"
)

var update = flag.Bool("update", false, "rewrite the objectives in reference.json and manifest.json")

// TestSmoke runs every workload at tiny size, untraced and traced, through
// the same code path as the command, and checks what it prints.
func TestSmoke(t *testing.T) {
	for _, name := range []string{"map", "sweep", "serve"} {
		for _, traced := range []bool{false, true} {
			spans := filepath.Join(t.TempDir(), "spans.json")
			var stdout, stderr bytes.Buffer
			opt := options{workload: name, seed: 3, passes: 2, tiny: true, trace: traced, traceOut: spans}
			if code := report(opt, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%v: exit %d\nstdout:\n%s\nstderr:\n%s", name, traced, code, &stdout, &stderr)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", name, traced, d.name, m, d.unit)
				}
			}
			if !traced {
				if v := res.Metrics["success_frac"].Value; v != 1 {
					t.Errorf("%s: success_frac = %v", name, v)
				}
				for _, d := range endToEnd {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", name, d.name, res.Metrics[d.name].Value)
					}
				}
				continue
			}
			checkSpans(t, name, spans)
		}
	}
}

// checkSpans checks that the span file links every child to an existing
// parent of the same op, and that ops share their id with decomposition
// spans outside their own span.
func checkSpans(t *testing.T, name, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct{ Spans []span }
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	byID := map[int]span{}
	for _, s := range f.Spans {
		byID[s.ID] = s
	}
	ops := map[int]bool{}
	children, decomposed := 0, 0
	for _, s := range f.Spans {
		if s.End < s.Start || s.Op == 0 {
			t.Fatalf("%s: bad span %+v", name, s)
		}
		if strings.HasPrefix(s.Name, "op:") {
			ops[s.Op] = true
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Op != s.Op {
			t.Fatalf("%s: span %+v has parent %+v", name, s, p)
		}
		children++
	}
	for _, s := range f.Spans {
		if strings.HasPrefix(s.Name, "decompose:") && ops[s.Op] {
			decomposed++
		}
	}
	if len(ops) == 0 || children == 0 || decomposed == 0 {
		t.Errorf("%s: %d op spans, %d child spans, %d decompositions sharing an op id", name, len(ops), children, decomposed)
	}
}

// TestUsage checks that bad arguments exit 2 without a result.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{{}, {"--workload", "lp"}, {"--workload", "map", "--trace", "2"}, {"--workload", "map", "--seconds", "0"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%q: exit %d, stdout %q", args, code, &stdout)
		}
	}
}

// TestReference runs one pass of every workload, tiny and full size, and
// checks every answer against reference.json. With -update it records the
// objectives of the seed-independent ops instead and rewrites
// reference.json and manifest.json.
func TestReference(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size pass")
	}
	ctx := context.Background()
	chk, err := newChecker()
	if err != nil {
		t.Fatal(err)
	}
	chk.record = *update
	man := manifest{HeldOutSeed: heldOutSeed, ManifestSeed: 1, RunSeconds: 20, PerLayer: map[string]string{}}
	for _, d := range perLayer {
		man.PerLayer[d.name] = d.moves
	}
	for _, tiny := range []bool{true, false} {
		chk.first = map[string][]float64{} // op names repeat across sizes
		for _, name := range []string{"map", "sweep", "serve"} {
			w := workloads[name]
			inst, err := w.setup(ctx, man.ManifestSeed, tiny)
			if err != nil {
				t.Fatal(err)
			}
			samples, err := inst.pass(ctx, nil, nil)
			if cerr := inst.close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatal(err)
			}
			if failed := chk.run(samples); failed != 0 {
				t.Errorf("%s tiny=%v: %d failed solves: %v", name, tiny, failed, chk.messages)
			}
			if !tiny {
				man.Workloads = append(man.Workloads, describe(w, samples, man.RunSeconds))
			}
		}
	}
	if !*update || t.Failed() {
		return
	}
	ref, err := json.MarshalIndent(chk.ref, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("reference.json", append(ref, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("manifest.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// heldOutSeed is a seed no tuning used; a claimed gain must also hold on it.
const heldOutSeed = 7919

// manifest records each workload's op list and tail percentile, and the
// end-to-end metric each per-layer metric should move.
type manifest struct {
	HeldOutSeed  int64              `json:"held_out_seed"`
	ManifestSeed int64              `json:"manifest_seed"`
	RunSeconds   float64            `json:"run_seconds"`
	Workloads    []workloadManifest `json:"workloads"`
	PerLayer     map[string]string  `json:"per_layer_moves"`
}

type workloadManifest struct {
	Name           string       `json:"name"`
	Why            string       `json:"why"`
	Passes         int          `json:"passes"`
	OpsPerRun      int          `json:"ops_per_run"`
	TailPercentile float64      `json:"latency_tail_percentile"`
	TailBeyond     int          `json:"latency_tail_samples_beyond"`
	Ops            []opManifest `json:"ops"`
}

type opManifest struct {
	Name    string   `json:"name"`
	Solves  int      `json:"solves"`
	Configs []string `json:"configs"` // instance name, KKT dim and resolved backend of each distinct config
}

func describe(w workload, samples []sample, seconds float64) workloadManifest {
	passes := passCount(seconds, w.passSeconds)
	n := passes * len(samples)
	_, pct, beyond := tailLatency(make([]float64, n))
	wm := workloadManifest{Name: w.name, Why: w.why, Passes: passes, OpsPerRun: n, TailPercentile: pct, TailBeyond: beyond}
	for _, s := range samples {
		om := opManifest{Name: s.op, Solves: s.solves}
		seen := map[string]bool{}
		for _, p := range s.points {
			prob, err := core.BuildProblem(p.config())
			if err != nil {
				continue
			}
			dim := len(prob.C)
			if prob.A != nil {
				dim += prob.A.Rows
			}
			d := p.base.Name + " kkt=" + strconv.Itoa(dim) + " " + socp.ResolveFactorization(socp.FactorAuto, dim).String()
			if !seen[d] {
				seen[d] = true
				om.Configs = append(om.Configs, d)
			}
		}
		sort.Strings(om.Configs)
		wm.Ops = append(wm.Ops, om)
	}
	return wm
}

// TestHostRefAllocFree checks that the reference kernel allocates nothing
// once warm: an allocation would tie its time to the program's heap
// through the garbage collector.
func TestHostRefAllocFree(t *testing.T) {
	ref := newHostRef(1)
	for i := 0; i < 20; i++ {
		ref.sample()
	}
	if f, ms := ref.interval(); !(f > 0 && ms > 0) {
		t.Fatalf("interval() = %v, %v; want positive", f, ms)
	}
	if a := testing.AllocsPerRun(10, func() { ref.sample() }); a != 0 {
		t.Errorf("sample allocates %v times per run", a)
	}
}
