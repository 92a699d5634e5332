package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/socp"
	"repro/internal/taskgraph"
)

// A workload builds its op list from a seed. Its passSeconds is the
// nominal duration of one pass on a 2-core x86-64 host; it only converts
// --seconds into a pass count and is a constant, so the work of a run never
// depends on how fast the host is.
type workload struct {
	name        string
	why         string
	passSeconds float64
	// concurrent workloads overlap their ops and the reference kernel, so
	// a pass's time is its wall time; otherwise the kernel's time is
	// taken out of it.
	concurrent bool
	setup      func(ctx context.Context, seed int64, tiny bool) (instance, error)
}

var workloads = map[string]workload{
	"map": {name: "map", passSeconds: 2.3, setup: setupMap,
		why: "cold one-shot mappings from JSON on both KKT backends; bypasses warm starts, the pattern cache and the server"},
	"sweep": {name: "sweep", passSeconds: 3.1, setup: setupSweep,
		why: "trade-off sweeps and DSE with warm starts and a pattern cache; time moves to problem rebuild and verification"},
	"serve": {name: "serve", passSeconds: 0.45, concurrent: true, setup: setupServe,
		why: "bbserve over loopback TCP, 2 closed-loop clients, shared pattern cache; the only HTTP, admission and contention path"},
}

// hostMS returns the milliseconds of an interval at the nominal host
// speed: its elapsed time, less the reference kernel's unless the workload
// is concurrent, times the interval's host factor.
func (w workload) hostMS(elapsed time.Duration, factor, kernelMS float64) float64 {
	ms := float64(elapsed.Nanoseconds()) / 1e6
	if !w.concurrent {
		ms -= kernelMS
	}
	return ms * factor
}

// instance is a set-up workload.
type instance interface {
	// pass runs the op list once and returns one sample per op, in list
	// order. A non-nil tracer records a span per op; a non-nil hostRef is
	// sampled between ops.
	pass(ctx context.Context, tr *tracer, ref *hostRef) ([]sample, error)
	// counters reads the pattern-cache and admission counters of the ops
	// run so far.
	counters() (counters, error)
	// layers returns how the traced run decomposes this workload's ops.
	layers() layerSetup
	close() error
}

// sample is the outcome of one op.
type sample struct {
	op     string
	opID   int           // span op id (0 when untraced)
	dur    time.Duration // wall-clock latency of the op
	solves int           // solves, sweep points or requests completed
	// reported counts the solves whose ladder report and iteration count
	// the op exposes; attempts and iters sum over them.
	reported, attempts, iters int
	// points are the op's solves in order, for the traced decomposition.
	points []point
	// waitMS is, for a served request, the client latency minus the
	// solve time the response reports.
	waitMS float64
	// hostFactor converts the op's latency to the nominal host speed (0
	// when the pass did not set it per op; see hostRef).
	hostFactor float64
	// check compares the op's answers with the reference; it runs after
	// the timed passes.
	check func(c *checker) error
}

// point is one solve of an op: the op's configuration with every buffer
// capped at cap containers (cap 0 leaves it as is).
type point struct {
	base *taskgraph.Config
	cap  int
	// mapping is the rounded answer (nil when infeasible or not exposed).
	mapping *taskgraph.Mapping
	// warm marks a solve the op warm-started from the previous point.
	warm bool
}

// config materializes the point's configuration.
func (p point) config() *taskgraph.Config {
	if p.cap == 0 {
		return p.base
	}
	return withCap(p.base, p.cap)
}

// counters are pattern-cache hits and misses and, for a server, its
// accepted and shed requests.
type counters struct{ hits, misses, shed, accepted int64 }

func (a counters) sub(b counters) counters {
	return counters{a.hits - b.hits, a.misses - b.misses, a.shed - b.shed, a.accepted - b.accepted}
}

func (a counters) add(b counters) counters {
	return counters{a.hits + b.hits, a.misses + b.misses, a.shed + b.shed, a.accepted + b.accepted}
}

// libOp is an op of the library workloads (map and sweep).
type libOp struct {
	name string
	call func(ctx context.Context) (sample, error)
}

// libInstance runs a list of library ops sequentially on one goroutine.
type libInstance struct {
	ops   []libOp
	cache counters // pattern-cache counters summed over the sweep ops run
	setup layerSetup
}

// Between ops, and before the first and after the last, a library pass
// runs the reference kernel at least refPerOp times and for at least
// 1/refShare of the previous op's latency, so the kernel samples the host
// about evenly over time, long ops and short alike. An op's host factor
// comes from the runs just before and just after it, so it follows the
// host through phases shorter than a pass.
const (
	refPerOp = 3
	refShare = 8
)

func (in *libInstance) pass(ctx context.Context, tr *tracer, ref *hostRef) ([]sample, error) {
	out := make([]sample, 0, len(in.ops))
	var beforeMS float64
	var before int
	if ref != nil {
		beforeMS, before = ref.gap(refPerOp, 0)
	}
	for _, o := range in.ops {
		id := tr.newOp()
		sp := tr.start("op:"+o.name, 0, id)
		t0 := time.Now()
		s, err := o.call(ctx)
		s.dur = time.Since(t0)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("op %s: %w", o.name, err)
		}
		s.op, s.opID = o.name, id
		if ref != nil {
			afterMS, after := ref.gap(refPerOp, s.dur/refShare)
			s.hostFactor = refMS * float64(before+after) / (beforeMS + afterMS)
			beforeMS, before = afterMS, after
		}
		out = append(out, s)
	}
	return out, nil
}

func (in *libInstance) counters() (counters, error) { return in.cache, nil }
func (in *libInstance) layers() layerSetup          { return in.setup }
func (in *libInstance) close() error                { return nil }

// seeds draws the instance seeds of a workload from its seed.
func seeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63n(1 << 40)
	}
	return out
}

// multiJob generates a multi-job configuration whose jobs all have the same
// task count, so the size of the instance does not depend on the seed.
func multiJob(seed int64, jobs, tasks, procs int) *taskgraph.Config {
	c := gen.RandomJobs(gen.RandomOptions{Seed: seed, Jobs: jobs, MinTasks: tasks, MaxTasks: tasks, Processors: procs})
	c.Name = fmt.Sprintf("jobs%dx%d-s%d", jobs, tasks, seed)
	return c
}

// setupMap builds the map op list: cold one-shot mappings of configs that
// arrive as JSON. It covers both factorization backends (KKT dim < 768
// resolves to simplicial, ≥ 768 to supernodal) and bypasses warm starts,
// the pattern cache and the server, so reuse and serving optimisations
// should leave it unchanged.
func setupMap(_ context.Context, seed int64, tiny bool) (instance, error) {
	// Seeded configs are checked for verification and determinism; the
	// others also against the committed reference objectives.
	var seeded, fixed []*taskgraph.Config
	if tiny {
		for _, s := range seeds(seed, 2) {
			seeded = append(seeded, multiJob(s, 2, 4, 4))
		}
		fixed = append(fixed, gen.Chain(gen.ChainOptions{Tasks: 20}))
	} else {
		// Seven multi-job configs below, seven chain-100 period variants in
		// the middle and seven larger configs above: the median op latency
		// falls among 7 samples per pass of one size, which op-to-op noise
		// moves less than one sample per pass would.
		for _, s := range seeds(seed, 7) {
			seeded = append(seeded, multiJob(s, 8, 8, 8))
		}
		for k := 0; k < 7; k++ {
			c := gen.Chain(gen.ChainOptions{Tasks: 100, Period: 10 + 0.5*float64(k)})
			c.Name = fmt.Sprintf("chain-100-p%g", c.Graphs[0].Period)
			fixed = append(fixed, c)
		}
		for _, n := range []int{120, 140, 160} {
			fixed = append(fixed, gen.Chain(gen.ChainOptions{Tasks: n}))
		}
		for _, s := range seeds(seed+1, 2) {
			c := gen.RandomDAG(gen.DAGOptions{Seed: s, Tasks: 200})
			c.Name = fmt.Sprintf("dag-200-s%d", s)
			seeded = append(seeded, c)
		}
		// chain-380 and fanout-200 take about as long, so the tail
		// percentile falls inside their samples, not between two sizes.
		fixed = append(fixed, gen.Chain(gen.ChainOptions{Tasks: 380}), gen.FanOut(gen.FanOutOptions{Width: 200}))
	}
	in := &libInstance{}
	for i, c := range append(seeded, fixed...) {
		data, err := json.Marshal(c)
		if err != nil {
			return nil, err
		}
		name := c.Name
		ref := ""
		if i >= len(seeded) {
			ref = "map/" + name
		}
		in.ops = append(in.ops, libOp{name: name, call: func(ctx context.Context) (sample, error) {
			cfg, err := taskgraph.Parse(data)
			if err != nil {
				return sample{}, err
			}
			r, err := core.Solve(ctx, cfg, core.Options{Parallelism: 1, NoWarmStart: true, NoPatternCache: true})
			if err != nil {
				return sample{}, err
			}
			s := sample{solves: 1, points: []point{{base: cfg, mapping: r.Mapping}}}
			s.addReport(r)
			s.check = func(chk *checker) error {
				if err := chk.solved(cfg, r); err != nil {
					return err
				}
				return chk.objectives(name, ref, []float64{r.Mapping.Objective})
			}
			return s, nil
		}})
	}
	return in, nil
}

func (s *sample) addReport(r *core.Result) {
	if r == nil || r.Report == nil {
		return
	}
	s.reported++
	s.attempts += len(r.Report.Attempts)
	s.iters += r.SolverIterations
}

// capsRange returns lo, lo+1, …, hi.
func capsRange(lo, hi int) []int {
	out := make([]int, 0, hi-lo+1)
	for c := lo; c <= hi; c++ {
		out = append(out, c)
	}
	return out
}

// withCap returns a copy of c with every buffer capped at cap containers.
func withCap(c *taskgraph.Config, cap int) *taskgraph.Config {
	cc := c.Clone()
	for _, tg := range cc.Graphs {
		for i := range tg.Buffers {
			tg.Buffers[i].MaxContainers = cap
		}
	}
	return cc
}

// sweepOptions are the sweep workload's solver options: one solver
// goroutine, default warm starts, and a fresh pattern cache per call (what
// the drivers create by default), passed in so its counters can be read.
func sweepOptions() core.Options {
	return core.Options{Parallelism: 1, Solver: socp.Options{Cache: socp.NewPatternCache()}}
}

// warmChunk is the drivers' default warm-chain length (core.Options
// WarmChunk): point i of a sweep is warm-started from point i-1 unless i
// is a multiple of it.
const warmChunk = 8

// sweepCall runs one SweepBufferCaps call and adds its points to s.
func (in *libInstance) sweepCall(ctx context.Context, s *sample, c *taskgraph.Config, caps []int) ([]core.TradeoffPoint, error) {
	opt := sweepOptions()
	pts, err := core.SweepBufferCaps(ctx, c, nil, caps, opt)
	in.addCache(opt)
	if err != nil {
		return nil, err
	}
	for i, p := range pts {
		s.solves++
		s.addReport(p.Result)
		s.points = append(s.points, point{base: c, cap: p.Cap, mapping: p.Result.Mapping, warm: i%warmChunk != 0})
	}
	return pts, nil
}

// dseCall runs one DSEBisect call and adds its probes to s. Only the
// answering probe's result is exposed; the others count as solves without
// a report.
func (in *libInstance) dseCall(ctx context.Context, s *sample, c *taskgraph.Config, dse core.DSEOptions) (*core.DSEResult, error) {
	opt := sweepOptions()
	r, err := core.DSEBisect(ctx, c, dse, opt)
	in.addCache(opt)
	if err != nil {
		return nil, err
	}
	s.solves += r.Solves
	s.addReport(r.Result)
	for i, p := range r.Probes {
		pt := point{base: c, cap: p.Cap, warm: i > 0}
		if p.Cap == r.Cap && r.Result != nil {
			pt.mapping = r.Result.Mapping
		}
		s.points = append(s.points, pt)
	}
	return r, nil
}

func (in *libInstance) addCache(opt core.Options) {
	h, m := opt.Solver.Cache.Stats()
	in.cache.hits += h
	in.cache.misses += m
}

// setupSweep builds the sweep op list: trade-off sweeps and DSE bisections
// with default warm starts and pattern cache. Neighbouring points hot-exit
// the interior-point method, so the time moves to rebuilding the problem
// and to verification; the same socp layer runs warm and cached here but
// cold in map.
func setupSweep(_ context.Context, seed int64, tiny bool) (instance, error) {
	in := &libInstance{setup: layerSetup{warmChains: true, cachePerOp: true}}
	in.ops = append(in.ops, libOp{name: "paper-t1-t2", call: in.paperOp})
	nJobs, chainN, chainCaps, dseMax := 2, 100, capsRange(8, 67), 64
	jobCaps := capsRange(24, 33)
	if tiny {
		nJobs, chainN, chainCaps, dseMax = 1, 20, capsRange(8, 11), 16
		jobCaps = capsRange(24, 26)
	}
	for _, sd := range seeds(seed, nJobs) {
		c := multiJob(sd, 4, 6, 8)
		name := c.Name
		in.ops = append(in.ops, libOp{name: name, call: func(ctx context.Context) (sample, error) {
			var s sample
			pts, err := in.sweepCall(ctx, &s, c, jobCaps)
			if err != nil {
				return s, err
			}
			s.check = func(chk *checker) error { return chk.sweep(name, "", c, pts) }
			return s, nil
		}})
	}
	// Three DSE questions on one chain: the smallest cap with no budget
	// bound, and under two budget bounds. Their latencies are alike, so
	// the median and the tail percentile fall inside this class, not on
	// the edge between two op sizes.
	chain := gen.Chain(gen.ChainOptions{Tasks: chainN})
	for _, bound := range []float64{0, 1000, 500} {
		dse := core.DSEOptions{MaxCap: dseMax, BudgetBound: bound * float64(chainN) / 100}
		dseName := fmt.Sprintf("dse-%s", chain.Name)
		if bound > 0 {
			dseName = fmt.Sprintf("dse-%s-budget-%g", chain.Name, dse.BudgetBound)
		}
		in.ops = append(in.ops, libOp{name: dseName, call: func(ctx context.Context) (sample, error) {
			var s sample
			r, err := in.dseCall(ctx, &s, chain, dse)
			if err != nil {
				return s, err
			}
			s.check = func(chk *checker) error {
				if r.Result == nil {
					return fmt.Errorf("no feasible cap up to %d", dse.MaxCap)
				}
				if err := chk.solved(chain, r.Result); err != nil {
					return err
				}
				return chk.objectives(dseName, "sweep/"+dseName, []float64{float64(r.Cap), r.Result.Mapping.Objective})
			}
			return s, nil
		}})
	}
	sweepName := fmt.Sprintf("sweep-%s", chain.Name)
	in.ops = append(in.ops, libOp{name: sweepName, call: func(ctx context.Context) (sample, error) {
		var s sample
		pts, err := in.sweepCall(ctx, &s, chain, chainCaps)
		if err != nil {
			return s, err
		}
		s.check = func(chk *checker) error { return chk.sweep(sweepName, "sweep/"+sweepName, chain, pts) }
		return s, nil
	}})
	return in, nil
}

// paperOp reproduces the paper's experiments: the T1 and T2 trade-off
// sweeps over caps 1..10 (Figures 2a and 3) and a DSE bisection on T2
// under a budget bound. Their answers are checked against the analytic
// values in EXPERIMENTS.md.
func (in *libInstance) paperOp(ctx context.Context) (sample, error) {
	var s sample
	caps := capsRange(1, 10)
	t1, err := in.sweepCall(ctx, &s, gen.PaperT1(0), caps)
	if err != nil {
		return s, err
	}
	t2, err := in.sweepCall(ctx, &s, gen.PaperT2(0), caps)
	if err != nil {
		return s, err
	}
	dse, err := in.dseCall(ctx, &s, gen.PaperT2(0), core.DSEOptions{MaxCap: 10, BudgetBound: paperDSEBudgetBound})
	if err != nil {
		return s, err
	}
	s.check = func(chk *checker) error { return chk.paper(t1, t2, dse) }
	return s, nil
}
