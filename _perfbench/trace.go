package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dfmodel"
	"repro/internal/linalg"
	"repro/internal/serve"
	"repro/internal/socp"
	"repro/internal/taskgraph"
)

// span is one timed interval of the traced run. An op's end-to-end span
// and the decomposition spans of the same op share its op id.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced passes run.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	ops   int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp returns a fresh op id.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// start opens a span and returns its id.
func (t *tracer) start(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// timeMS sums and counts the durations of the spans named name.
func (t *tracer) timeMS(name string) (sum float64, n int) {
	for _, s := range t.spans {
		if s.Name == name {
			sum += float64(s.End-s.Start) / 1e6
			n++
		}
	}
	return sum, n
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerSetup says how the traced run re-solves a workload's points, so
// each layer sees the options the workload's own calls used.
type layerSetup struct {
	warmChains  bool          // warm-start each point from the previous one, as the sweep drivers do
	cachePerOp  bool          // a fresh pattern cache per op, as the sweep drivers create
	sharedCache bool          // one pattern cache for every point, as a server has
	server      *serve.Server // the workload's own server; nil starts one for the decomposition
}

// layerSpans maps the per-layer metrics that are mean span durations to
// the span recorded around the layer's public call.
var layerSpans = map[string]string{
	"taskgraph.parse_ms":          "taskgraph.Parse",
	"core.build_ms":               "core.BuildProblem",
	"socp.solve_ms":               "socp.SolveContext",
	"linalg.ata_ms":               "linalg.SparseAtA",
	"linalg.analyze_ms":           "linalg.Analyze",
	"linalg.factor_simplicial_ms": "linalg.FactorSimplicial",
	"linalg.factor_supernodal_ms": "linalg.FactorSupernodal",
	"dfmodel.verify_ms":           "dfmodel.Verify",
	"srdf.mcm_ms":                 "srdf.MinPeriodHoward",
	"serve.handler_ms":            "serve.Handler",
	"serve.solve_call_ms":         "serve.Server.Solve",
}

// layers accumulates the counts behind the per-layer metrics.
type layers struct {
	tr                        *tracer
	socpSolves, socpIters     int
	reported, attempts, iters int // ladder reports of the traced ops
	count                     counters
	clientWait, handlerWait   []float64
	overheadPct               float64
}

// factorJob is the GᵀG of one point with its symbolic analysis.
type factorJob struct {
	op  int
	a   *linalg.SparseMatrix
	sym *linalg.SymbolicFactor
}

// decompose re-runs every point of the given ops through each layer's
// public calls, one span per call, under a root span per point that shares
// the op's id but lies outside its end-to-end span. GᵀG is factorized with
// the backend socp.ResolveFactorization picks; a backend no point resolves
// to is timed on every point instead, so both factor metrics are measured
// on every workload.
func decompose(ctx context.Context, inst instance, tr *tracer, ops []sample, workloadName string) (*layers, error) {
	ls := inst.layers()
	srv := ls.server
	if srv == nil {
		srv = serve.New(serve.Config{Workers: 1, Solve: core.Options{Parallelism: 1}})
		defer func() {
			_ = srv.Drain(ctx) // idle by then: every request above has returned
		}()
	}
	var shared *socp.PatternCache
	if ls.sharedCache {
		shared = socp.NewPatternCache()
	}
	lv := &layers{tr: tr}
	var jobs []factorJob
	resolved := map[socp.Factorization]int{}
	for _, s := range ops {
		cache := shared
		if ls.cachePerOp {
			cache = socp.NewPatternCache()
		}
		var warm *socp.WarmStart
		for _, p := range s.points {
			root := tr.start("decompose:"+s.op, 0, s.opID)
			opt := socp.Options{Cache: cache}
			if ls.warmChains && p.warm {
				opt.WarmStart = warm
			}
			sol, job, backend, err := lv.point(ctx, srv, root, s.opID, p, opt)
			tr.end(root)
			if err != nil {
				return nil, fmt.Errorf("%s decomposition of %s: %w", workloadName, s.op, err)
			}
			if sol.Status == socp.StatusOptimal {
				warm = sol.Warm()
			}
			jobs = append(jobs, job)
			resolved[backend]++
		}
	}
	for _, b := range []socp.Factorization{socp.FactorSparse, socp.FactorSupernodal} {
		if resolved[b] > 0 {
			continue
		}
		for _, j := range jobs {
			root := tr.start("decompose:forced-"+b.String(), 0, j.op)
			err := lv.factor(j, root, b)
			tr.end(root)
			if err != nil {
				return nil, err
			}
		}
	}
	if ls.server == nil {
		c, err := serverCounters(srv)
		if err != nil {
			return nil, err
		}
		lv.count.shed, lv.count.accepted = c.shed, c.accepted
	}
	return lv, nil
}

// point times one solve's layers.
func (lv *layers) point(ctx context.Context, srv *serve.Server, root, op int, p point, opt socp.Options) (*socp.Solution, factorJob, socp.Factorization, error) {
	tr := lv.tr
	cfg := p.config()
	data, err := json.Marshal(cfg)
	if err != nil {
		return nil, factorJob{}, 0, err
	}
	sp := tr.start("taskgraph.Parse", root, op)
	_, err = taskgraph.Parse(data)
	tr.end(sp)
	if err != nil {
		return nil, factorJob{}, 0, err
	}
	sp = tr.start("core.BuildProblem", root, op)
	prob, err := core.BuildProblem(cfg)
	tr.end(sp)
	if err != nil {
		return nil, factorJob{}, 0, err
	}
	sp = tr.start("socp.SolveContext", root, op)
	sol, err := socp.SolveContext(ctx, prob, opt)
	tr.end(sp)
	if err != nil {
		return nil, factorJob{}, 0, err
	}
	lv.socpSolves++
	lv.socpIters += sol.Iterations

	g := prob.GSparse
	if g == nil {
		g = linalg.NewSparseFromDense(prob.G)
	}
	sp = tr.start("linalg.SparseAtA", root, op)
	ata := linalg.NewSparseAtA(g)
	ata.Compute(g)
	tr.end(sp)
	sp = tr.start("linalg.Analyze", root, op)
	sym := linalg.Analyze(ata.Result, nil)
	tr.end(sp)
	job := factorJob{op: op, a: ata.Result, sym: sym}
	dim := len(prob.C)
	if prob.A != nil {
		dim += prob.A.Rows
	}
	backend := socp.ResolveFactorization(socp.FactorAuto, dim)
	if err := lv.factor(job, root, backend); err != nil {
		return nil, factorJob{}, 0, err
	}

	if p.mapping != nil {
		sp = tr.start("dfmodel.Verify", root, op)
		v, err := dfmodel.Verify(cfg, p.mapping)
		tr.end(sp)
		if err != nil {
			return nil, factorJob{}, 0, err
		}
		if !v.OK {
			return nil, factorJob{}, 0, fmt.Errorf("mapping fails verification: %v", v.Problems)
		}
		sp = tr.start("srdf.MinPeriodHoward", root, op)
		for _, tg := range cfg.Graphs {
			sg, _, err := dfmodel.BuildGraph(cfg, tg, p.mapping)
			if err != nil {
				return nil, factorJob{}, 0, err
			}
			if _, err := sg.MinPeriodHoward(); err != nil {
				return nil, factorJob{}, 0, err
			}
		}
		tr.end(sp)
	}

	body, err := json.Marshal(serve.SolveRequest{Config: data})
	if err != nil {
		return nil, factorJob{}, 0, err
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
	sp = tr.start("serve.Handler", root, op)
	t0 := time.Now()
	srv.Handler().ServeHTTP(rec, req)
	dur := time.Since(t0)
	tr.end(sp)
	var sr serve.SolveResponse
	if rec.Code != http.StatusOK {
		return nil, factorJob{}, 0, fmt.Errorf("handler: HTTP %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		return nil, factorJob{}, 0, err
	}
	lv.handlerWait = append(lv.handlerWait, float64(dur.Nanoseconds())/1e6-sr.ElapsedMS)
	sp = tr.start("serve.Server.Solve", root, op)
	_, _, err = srv.Solve(ctx, cfg, false)
	tr.end(sp)
	if err != nil {
		return nil, factorJob{}, 0, err
	}
	return sol, job, backend, nil
}

// factor times one numeric factorization of the job's GᵀG on backend b,
// with the solver's default static regularization.
func (lv *layers) factor(j factorJob, root int, b socp.Factorization) error {
	reg := 1e-13 * j.a.NormInf()
	var err error
	if b == socp.FactorSupernodal {
		num := j.sym.NewSupernodal(1)
		sp := lv.tr.start("linalg.FactorSupernodal", root, j.op)
		err = num.Factorize(j.a, 0, reg)
		lv.tr.end(sp)
	} else {
		num := j.sym.NewNumeric()
		sp := lv.tr.start("linalg.FactorSimplicial", root, j.op)
		err = num.Factorize(j.a, 0, reg)
		lv.tr.end(sp)
	}
	if err != nil {
		return fmt.Errorf("%s factorization of GᵀG: %w", b, err)
	}
	return nil
}

// fillCounters adds the counts of the traced passes: ladder reports, the
// client-side wait of served requests, and the cache and admission
// counters read before and after them. A library workload has no server of
// its own; decompose took its admission counters from the private one.
func (lv *layers) fillCounters(traced []sample, c counters) {
	for _, s := range traced {
		lv.reported += s.reported
		lv.attempts += s.attempts
		lv.iters += s.iters
		if s.waitMS != 0 {
			lv.clientWait = append(lv.clientWait, s.waitMS)
		}
	}
	lv.count.hits, lv.count.misses = c.hits, c.misses
	if c.accepted+c.shed > 0 {
		lv.count.shed, lv.count.accepted = c.shed, c.accepted
	}
}

// value returns the per-layer metric name.
func (lv *layers) value(name string) float64 {
	if sp, ok := layerSpans[name]; ok {
		sum, n := lv.tr.timeMS(sp)
		return ratio(sum, float64(n))
	}
	switch name {
	case "core.ladder_attempts_per_solve":
		return ratio(float64(lv.attempts), float64(lv.reported))
	case "core.warm_iters_per_point":
		return ratio(float64(lv.iters), float64(lv.reported))
	case "socp.iters_per_solve":
		return ratio(float64(lv.socpIters), float64(lv.socpSolves))
	case "socp.ms_per_iter":
		sum, _ := lv.tr.timeMS("socp.SolveContext")
		return ratio(sum, float64(lv.socpIters))
	case "socp.cache_hit_frac":
		return ratio(float64(lv.count.hits), float64(lv.count.hits+lv.count.misses))
	case "serve.wait_ms":
		if len(lv.clientWait) > 0 {
			return mean(lv.clientWait)
		}
		return mean(lv.handlerWait)
	case "serve.shed_frac":
		return ratio(float64(lv.count.shed), float64(lv.count.shed+lv.count.accepted))
	case "trace.overhead_pct":
		return lv.overheadPct
	}
	panic("perfbench: no per-layer metric " + name)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}
