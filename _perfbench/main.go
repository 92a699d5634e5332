// Command perfbench is the repository benchmark. It runs one workload as a
// fixed, seeded list of operations executed to completion in a fixed order,
// checks every answer against a reference, and prints its metrics as one
// JSON object on the last line of standard output:
//
//	perfbench --workload map|sweep|serve --seed N --seconds S --trace 0|1
//
// The workloads:
//
//   - map: cold one-shot mappings, like bbmap. Every configuration arrives
//     as JSON and goes through taskgraph.Parse and core.Solve with
//     verification on, no warm start and no pattern cache.
//   - sweep: trade-off and design-space exploration, like bbtrade.
//     core.SweepBufferCaps and core.DSEBisect with their default warm
//     starts and pattern cache.
//   - serve: bbserve in-process behind a loopback TCP listener, driven by a
//     closed loop of two keep-alive clients.
//
// --seconds fixes the number of passes over the op list: the seconds
// divided by the workload's nominal pass time, at least one. It never cuts
// a pass short, so every run with the same arguments does identical work.
// --trace 0 prints the end-to-end metrics, every time taken at a nominal
// host speed measured by a reference kernel run between ops (hostref.go).
// --trace 1 is the traced run: it
// alternates untraced and traced passes (the same pass count, at least one
// of each), times each layer's public calls
// on the ops of the first traced pass, writes the spans to a JSON file and
// prints the per-layer metrics and the tracing overhead.
//
// A wrong answer counts against success_frac and makes the command exit 1
// after printing its metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"syscall"
	"time"
)

// setupRepeats is how many times a run sets its workload up. setup_s is
// the median, so one slow set-up does not move it.
const setupRepeats = 3

// maxProcs caps GOMAXPROCS so that runs on bigger hosts keep the
// two-core shape the bounds were measured on.
const maxProcs = 2

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the parsed command-line arguments.
type options struct {
	workload string
	seed     int64
	passes   int
	tiny     bool // smallest op lists, for the smoke test
	trace    bool
	traceOut string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: map, sweep or serve")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "nominal measured time; fixes the number of passes")
	traceFlag := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	traceOut := fs.String("trace-out", "", "span file of the traced run (default .bench_build/trace-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || fs.NArg() > 0 || (*traceFlag != 0 && *traceFlag != 1) || !(*seconds > 0) {
		fmt.Fprintf(stderr, "perfbench: usage: --workload map|sweep|serve --seed N --seconds S --trace 0|1\n")
		return 2
	}
	opt := options{
		workload: *name,
		seed:     *seed,
		passes:   passCount(*seconds, w.passSeconds),
		trace:    *traceFlag == 1,
		traceOut: *traceOut,
	}
	if opt.trace && opt.traceOut == "" {
		opt.traceOut = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", opt.workload, opt.seed))
	}
	return report(opt, stdout, stderr)
}

// report runs the workload and prints its diagnostics and, last, the
// result line. It returns the exit code.
func report(opt options, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))
	res, err := execute(context.Background(), workloads[opt.workload], opt, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// passCount converts the requested seconds into a whole number of passes.
func passCount(seconds, passSeconds float64) int {
	return max(1, int(math.Round(seconds/passSeconds)))
}

// result is the JSON object printed on the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit. For a per-layer metric, moves
// names the end-to-end metric and workloads a change in it should move.
type metricDef struct {
	name, unit, moves string
}

var endToEnd = []metricDef{
	{name: "solves_per_s", unit: "1/s"},
	{name: "latency_p50_ms", unit: "ms"},
	{name: "latency_tail_ms", unit: "ms"},
	{name: "cpu_ms_per_solve", unit: "ms"},
	{name: "alloc_mb_per_solve", unit: "MB"},
	{name: "peak_rss_mb", unit: "MB"},
	{name: "success_frac", unit: "frac"},
	{name: "setup_s", unit: "s"},
}

var perLayer = []metricDef{
	{"taskgraph.parse_ms", "ms", "serve/latency_p50_ms; map/solves_per_s"},
	{"core.build_ms", "ms", "sweep/solves_per_s"},
	{"core.ladder_attempts_per_solve", "count", "cpu_ms_per_solve on map, sweep and serve"},
	{"core.warm_iters_per_point", "count", "sweep/solves_per_s"},
	{"socp.solve_ms", "ms", "map/solves_per_s"},
	{"socp.iters_per_solve", "count", "map/solves_per_s"},
	{"socp.ms_per_iter", "ms", "map/solves_per_s"},
	{"socp.cache_hit_frac", "frac", "sweep and serve solves_per_s and alloc_mb_per_solve"},
	{"linalg.ata_ms", "ms", "map/solves_per_s"},
	{"linalg.analyze_ms", "ms", "map/solves_per_s"},
	{"linalg.factor_simplicial_ms", "ms", "map/solves_per_s"},
	{"linalg.factor_supernodal_ms", "ms", "map/solves_per_s"},
	{"dfmodel.verify_ms", "ms", "sweep/solves_per_s, then map/solves_per_s"},
	{"srdf.mcm_ms", "ms", "sweep/solves_per_s, then map/solves_per_s"},
	{"serve.handler_ms", "ms", "serve/latency_p50_ms"},
	{"serve.solve_call_ms", "ms", "serve/latency_p50_ms"},
	{"serve.wait_ms", "ms", "serve/latency_p50_ms"},
	{"serve.shed_frac", "frac", "serve/success_frac"},
	{"trace.overhead_pct", "%", "none: traced op time over untraced op time in the same run, minus 100%"},
}

// execute sets the workload up setupRepeats times, runs the passes on the
// last set-up, checks every answer and computes the metrics.
func execute(ctx context.Context, w workload, opt options, diag io.Writer) (*result, error) {
	calStart := calibrate()
	chk, err := newChecker()
	if err != nil {
		return nil, err
	}
	var inst instance
	defer func() {
		if inst != nil {
			inst.close() // error paths only; the success path checks close
		}
	}()
	ref := newHostRef(clients)
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			err := inst.close()
			inst = nil
			if err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if inst, err = w.setup(ctx, opt.seed, opt.tiny); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		warm, err := inst.pass(ctx, nil, ref)
		if err != nil {
			return nil, fmt.Errorf("%s warm-up pass: %w", w.name, err)
		}
		f, kernelMS := ref.interval()
		setups = append(setups, w.hostMS(time.Since(t0), f, kernelMS)/1e3)
		chk.run(warm)
	}

	var res *result
	if opt.trace {
		res, err = tracedRun(ctx, w, inst, opt, chk, diag)
	} else {
		res, err = timedRun(ctx, w, inst, opt, chk, ref, median(setups), diag)
	}
	if err != nil {
		return nil, err
	}
	err = inst.close()
	inst = nil
	if err != nil {
		return nil, err
	}
	res.Correct = chk.failures == 0
	for _, msg := range chk.messages {
		fmt.Fprintf(diag, "perfbench: check failed: %s\n", msg)
	}
	fmt.Fprintf(diag, "perfbench: calibration kernel %.3f ms at start, %.3f ms at end (host drift diagnostic, not gated)\n",
		calStart, calibrate())
	return res, nil
}

// timedRun runs the untraced passes and computes the end-to-end metrics.
// Every time is taken at the nominal host speed (see hostRef): a library
// op's latency is multiplied by its own host factor, a served request's by
// its pass's. A library pass's time is the sum of its ops' latencies, a
// served pass's its wall time; a pass's CPU time is multiplied by the
// ratio of its time at the nominal speed to its time as measured.
// Throughput, CPU and allocation are measured per pass and reported as the
// median over passes, so a burst of load on the host moves them less than
// a whole-run total would.
func timedRun(ctx context.Context, w workload, inst instance, opt options, chk *checker, ref *hostRef, setupS float64, diag io.Writer) (*result, error) {
	var timed []sample
	var lat, solvesPerS, cpuPerSolve, allocPerSolve, factors, rawSolvesPerS []float64
	runtime.GC()
	ref.interval()
	for p := 0; p < opt.passes; p++ {
		ru0, ms0 := usage()
		t0 := time.Now()
		s, err := inst.pass(ctx, nil, ref)
		if err != nil {
			return nil, err
		}
		wall := time.Since(t0)
		ru1, ms1 := usage()
		f, kernelMS := ref.interval()
		// A library pass's time is the sum of its op latencies, as measured
		// and at the nominal host speed; a served pass's is its wall time.
		var rawMS, passMS float64
		for i := range s {
			if s[i].hostFactor == 0 {
				s[i].hostFactor = f
			}
			l := float64(s[i].dur.Nanoseconds()) / 1e6
			lat = append(lat, l*s[i].hostFactor)
			rawMS += l
			passMS += l * s[i].hostFactor
		}
		if w.concurrent {
			rawMS = float64(wall.Nanoseconds()) / 1e6
			passMS = rawMS * f
		}
		f = passMS / rawMS // the pass's factor, weighted by op time
		timed = append(timed, s...)
		n := float64(solves(s))
		solvesPerS = append(solvesPerS, n/passMS*1e3)
		rawSolvesPerS = append(rawSolvesPerS, n/rawMS*1e3)
		factors = append(factors, f)
		cpuPerSolve = append(cpuPerSolve, (cpuMS(ru0, ru1)-kernelMS)*f/n)
		allocPerSolve = append(allocPerSolve, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20)/n)
	}
	res := &result{Attempted: solves(timed), Failed: chk.run(timed)}
	tail, pct, beyond := tailLatency(lat)
	ru, _ := usage()
	values := map[string]float64{
		"solves_per_s":       median(solvesPerS),
		"latency_p50_ms":     median(lat),
		"latency_tail_ms":    tail,
		"cpu_ms_per_solve":   median(cpuPerSolve),
		"alloc_mb_per_solve": median(allocPerSolve),
		"peak_rss_mb":        float64(ru.Maxrss) / 1024,
		"success_frac":       float64(res.Attempted-res.Failed) / float64(res.Attempted),
		"setup_s":            setupS,
	}
	res.Metrics = map[string]metric{}
	for _, d := range endToEnd {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	fmt.Fprintf(diag, "perfbench: %s seed %d: %d passes, %d ops, %d solves; latency_tail_ms is p%.1f of %d op latencies (%d beyond it)\n",
		w.name, opt.seed, opt.passes, len(timed), res.Attempted, pct, len(lat), beyond)
	fmt.Fprintf(diag, "perfbench: host factor %.3f (median over passes, range %.3f to %.3f); as measured: solves_per_s %.3f, latency_p50_ms %.3f (not gated)\n",
		median(factors), slices.Min(factors), slices.Max(factors), median(rawSolvesPerS), median(latencies(timed)))
	return res, nil
}

// tracedRun runs pairs of one untraced and one traced pass — the same
// pass count as an untraced run, at least one pair — decomposes the ops of
// the first traced pass and computes the per-layer metrics.
func tracedRun(ctx context.Context, w workload, inst instance, opt options, chk *checker, diag io.Writer) (*result, error) {
	tr := newTracer()
	var untraced, traced, first []sample
	var count counters
	runtime.GC()
	for p := 0; p < opt.passes; p += 2 {
		s, err := inst.pass(ctx, nil, nil)
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, s...)
		c0, err := inst.counters()
		if err != nil {
			return nil, err
		}
		if s, err = inst.pass(ctx, tr, nil); err != nil {
			return nil, err
		}
		if first == nil {
			first = s
		}
		traced = append(traced, s...)
		c1, err := inst.counters()
		if err != nil {
			return nil, err
		}
		count = count.add(c1.sub(c0))
	}
	all := append(untraced, traced...)
	res := &result{Attempted: solves(all), Failed: chk.run(all), Metrics: map[string]metric{}}
	lv, err := decompose(ctx, inst, tr, first, w.name)
	if err != nil {
		return nil, err
	}
	lv.fillCounters(traced, count)
	lv.overheadPct = 100 * (sumDur(traced)/sumDur(untraced) - 1)
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{Value: lv.value(d.name), Unit: d.unit}
	}
	if err := tr.write(opt.traceOut); err != nil {
		return nil, err
	}
	fmt.Fprintf(diag, "perfbench: %d spans written to %s\n", len(tr.spans), opt.traceOut)
	return res, nil
}

func solves(s []sample) int {
	n := 0
	for i := range s {
		n += s[i].solves
	}
	return n
}

// latencies returns the op latencies in milliseconds.
func latencies(s []sample) []float64 {
	out := make([]float64, len(s))
	for i := range s {
		out[i] = float64(s[i].dur.Nanoseconds()) / 1e6
	}
	return out
}

func sumDur(s []sample) float64 {
	var t float64
	for i := range s {
		t += s[i].dur.Seconds()
	}
	return t
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLatency returns the highest percentile with at least ten samples
// beyond it (the maximum when there are ten or fewer samples), but at most
// the 95th, that percentile and the number of samples beyond it. Above the 95th, a run of thousands of
// requests would report its few slowest, which a single GC pause or
// scheduler stall sets.
func tailLatency(xs []float64) (value, pct float64, beyond int) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	k := max(0, n-11)
	if n <= 10 {
		k = n - 1
	}
	k = max(0, min(k, int(math.Ceil(0.95*float64(n)))-1))
	return s[k], 100 * float64(k+1) / float64(n), n - k - 1
}

// usage reads the process's resource usage and allocation counters.
func usage() (syscall.Rusage, runtime.MemStats) {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ru, ms
}

// cpuMS returns the user+system CPU milliseconds between two readings.
func cpuMS(a, b syscall.Rusage) float64 {
	ms := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return ms(b.Utime) - ms(a.Utime) + ms(b.Stime) - ms(a.Stime)
}

// calibrate times a fixed stdlib-only kernel — a 256×256 dense matrix
// product, median of five — that touches no repository code. Printed at
// the start and end of every run, it tells a slower host from a slower
// program when two sets of runs disagree.
func calibrate() float64 {
	const n = 256
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	c := make([]float64, n*n)
	for i := range a {
		a[i] = float64(i%17) / 17
		b[i] = float64(i%13) / 13
	}
	times := make([]float64, 5)
	for r := range times {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			ci := c[i*n : (i+1)*n]
			for k := 0; k < n; k++ {
				aik := a[i*n+k]
				bk := b[k*n : (k+1)*n]
				for j := range ci {
					ci[j] += aik * bk[j]
				}
			}
		}
		times[r] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	return median(times)
}
