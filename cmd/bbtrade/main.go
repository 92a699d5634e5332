// Command bbtrade regenerates the figures and tables of the paper's
// evaluation section, plus the extension experiments documented in
// DESIGN.md.
//
// Usage:
//
//	bbtrade -experiment fig2a|fig2b|fig3|runtime|scalability|compare|ablation|pareto|latency|dse|all
//	        [-csv] [-parallel N] [-factor auto|sparse|supernodal]
//	        [-factorworkers N] [-dse-tasks N] [-dse-cap D] [-dse-bound B]
//	        [-cpuprofile FILE] [-memprofile FILE]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/bits"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/socp"
	"repro/internal/textplot"
)

func main() {
	ctx, stop := cli.SignalContext()
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bbtrade", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp = fs.String("experiment", "all",
			"fig2a | fig2b | fig3 | runtime | scalability | compare | ablation | pareto | latency | dse | all")
		csv      = fs.Bool("csv", false, "emit CSV instead of tables/plots")
		parallel = fs.Int("parallel", 0,
			"worker pool size for sweep experiments (0 = GOMAXPROCS, 1 = sequential)")
		factor = fs.String("factor", "auto",
			"KKT factorization: auto (the simplicial default) | sparse (simplicial LDLT) | supernodal (blocked LDLT)")
		factorWorkers = fs.Int("factorworkers", 0,
			"supernodal factorization worker pool size (<=1 = serial; results are bitwise identical at every setting)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file after the experiments finish")
		timeout    = fs.Duration("timeout", 0, "abort the experiments after this duration (0 = no limit)")
		dseTasks   = fs.Int("dse-tasks", 100, "dse: chain length of the explored instance")
		dseCap     = fs.Int("dse-cap", 64, "dse: largest buffer capacity considered (the d of O(log d))")
		dseBound   = fs.Float64("dse-bound", 0, "dse: total budget bound a capacity must meet to count as feasible (0 = any optimal solve)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx, cancel := cli.WithTimeout(ctx, *timeout)
	defer cancel()
	opt := core.Options{Parallelism: *parallel}
	switch *factor {
	case "auto", "":
		// default backend selection
	case "sparse":
		opt.Solver.Factorization = socp.FactorSparse
	case "supernodal":
		opt.Solver.Factorization = socp.FactorSupernodal
	default:
		fmt.Fprintf(stderr, "bbtrade: unknown -factor %q (want auto, sparse, or supernodal)\n", *factor)
		return 2
	}
	opt.Solver.FactorWorkers = *factorWorkers
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "bbtrade:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "bbtrade:", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		// Deferred so the profile reflects the heap after the experiments, and
		// is written on every exit path out of run.
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "bbtrade:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "bbtrade:", err)
			}
		}()
	}

	runOne := func(name string) int {
		switch name {
		case "fig2a", "fig2b":
			points, err := experiments.Fig2(ctx, opt)
			if err != nil {
				fmt.Fprintln(stderr, "bbtrade:", err)
				return 1
			}
			if *csv {
				tb := textplot.NewTable("cap", "budget", "delta")
				for _, p := range points {
					tb.AddRow(p.Cap, p.Budget, p.DeltaBudget)
				}
				fmt.Fprint(stdout, tb.CSV())
				return 0
			}
			if name == "fig2a" {
				fmt.Fprintln(stdout, experiments.RenderFig2a(points))
			} else {
				fmt.Fprintln(stdout, experiments.RenderFig2b(points))
			}
		case "fig3":
			points, err := experiments.Fig3(ctx, opt)
			if err != nil {
				fmt.Fprintln(stderr, "bbtrade:", err)
				return 1
			}
			if *csv {
				tb := textplot.NewTable("cap", "budget_wb", "budget_wa_wc")
				for _, p := range points {
					tb.AddRow(p.Cap, p.BudgetWB, p.BudgetWAWC)
				}
				fmt.Fprint(stdout, tb.CSV())
				return 0
			}
			fmt.Fprintln(stdout, experiments.RenderFig3(points))
		case "runtime":
			rows, err := experiments.Runtime(ctx, opt)
			if err != nil {
				fmt.Fprintln(stderr, "bbtrade:", err)
				return 1
			}
			fmt.Fprintln(stdout, experiments.RenderRuntime(rows))
		case "scalability":
			points, err := experiments.Scalability(ctx, []int{2, 5, 10, 20, 50, 100}, opt)
			if err != nil {
				fmt.Fprintln(stderr, "bbtrade:", err)
				return 1
			}
			fmt.Fprintln(stdout, experiments.RenderScalability(points))
		case "compare":
			rows, err := experiments.JointVsTwoPhase(ctx, opt)
			if err != nil {
				fmt.Fprintln(stderr, "bbtrade:", err)
				return 1
			}
			fmt.Fprintln(stdout, experiments.RenderJointVsTwoPhase(rows))
		case "ablation":
			rows, err := experiments.AblationRounding(ctx, opt)
			if err != nil {
				fmt.Fprintln(stderr, "bbtrade:", err)
				return 1
			}
			fmt.Fprintln(stdout, experiments.RenderAblation(rows))
		case "latency":
			points, err := experiments.LatencyTradeoff(ctx, opt)
			if err != nil {
				fmt.Fprintln(stderr, "bbtrade:", err)
				return 1
			}
			fmt.Fprintln(stdout, "Latency/budget trade-off on T1 (wa → wb bound):")
			fmt.Fprintln(stdout, experiments.RenderLatencyTradeoff(points))
		case "dse":
			// The PREESM-style dichotomy: smallest buffer capacity that still
			// admits a feasible mapping (optionally under a budget bound), in
			// O(log d) warm-started solves instead of a d-point sweep.
			cfg := gen.Chain(gen.ChainOptions{Tasks: *dseTasks})
			res, err := core.DSEBisect(ctx, cfg, core.DSEOptions{MaxCap: *dseCap, BudgetBound: *dseBound}, opt)
			if err != nil {
				fmt.Fprintln(stderr, "bbtrade:", err)
				return 1
			}
			tb := textplot.NewTable("probe", "cap", "feasible", "total budget")
			for i, p := range res.Probes {
				tb.AddRow(i+1, p.Cap, p.OK, p.BudgetSum)
			}
			if *csv {
				fmt.Fprint(stdout, tb.CSV())
				return 0
			}
			fmt.Fprintf(stdout, "DSE bisection over %s, caps 1..%d (≤ %d solves allowed):\n",
				cfg.Name, *dseCap, 1+bits.Len(uint(*dseCap-1)))
			fmt.Fprintln(stdout, tb.String())
			if res.Cap < 0 {
				fmt.Fprintf(stdout, "no feasible capacity ≤ %d (settled in %d solve)\n", *dseCap, res.Solves)
			} else {
				fmt.Fprintf(stdout, "smallest feasible capacity: %d (found in %d solves)\n", res.Cap, res.Solves)
			}
		case "pareto":
			points, err := core.ParetoFrontier(ctx, gen.PaperT1(0), 13, opt)
			if err != nil {
				fmt.Fprintln(stderr, "bbtrade:", err)
				return 1
			}
			tb := textplot.NewTable("weight ratio", "total budget (Mcycles)", "total memory (units)")
			for _, p := range points {
				tb.AddRow(p.WeightRatio, p.BudgetTotal, p.MemoryTotal)
			}
			if *csv {
				fmt.Fprint(stdout, tb.CSV())
				return 0
			}
			fmt.Fprintln(stdout, "Pareto frontier of T1 (budget total vs. buffer memory):")
			fmt.Fprintln(stdout, tb.String())
		default:
			fmt.Fprintf(stderr, "bbtrade: unknown experiment %q\n", name)
			return 2
		}
		return 0
	}

	if *exp == "all" {
		for _, name := range []string{"fig2a", "fig2b", "fig3", "runtime", "scalability", "compare", "ablation", "pareto", "latency", "dse"} {
			fmt.Fprintf(stdout, "=== %s ===\n", name)
			if code := runOne(name); code != 0 {
				return code
			}
		}
		return 0
	}
	return runOne(*exp)
}
