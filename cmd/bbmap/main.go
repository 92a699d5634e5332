// Command bbmap computes budgets and buffer capacities for a task-graph
// configuration, using the paper's joint second-order cone program or one of
// the classical two-phase baselines, optionally searching task/buffer
// bindings first.
//
// Usage:
//
//	bbmap -config cfg.json [-method joint|budget-first|buffer-first]
//	      [-policy minimal-rate|fair-share] [-bind exhaustive|greedy]
//	      [-out mapping.json] [-quiet]
//
// The buffer-first baseline fixes every buffer's capacity at its
// maxContainers and sizes only the budgets, so it needs a configuration that
// sets maxContainers on every buffer; otherwise bbmap exits 1 and names the
// first buffer without one.
//
// The configuration format is the JSON encoding of taskgraph.Config; see
// cmd/bbgen for generators and examples/ for programmatic construction.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/binding"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/mrate"
	"repro/internal/taskgraph"
	"repro/internal/textplot"
)

func main() {
	ctx, stop := cli.SignalContext()
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bbmap", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		configPath = fs.String("config", "", "configuration JSON file (required)")
		method     = fs.String("method", "joint", "joint | budget-first | buffer-first (buffer-first takes every capacity from the buffer's maxContainers)")
		policy     = fs.String("policy", "minimal-rate", "budget-first phase-1 policy: minimal-rate | fair-share")
		bind       = fs.String("bind", "", "also search task/buffer bindings: exhaustive | greedy")
		outPath    = fs.String("out", "", "write the mapping as JSON to this file")
		quiet      = fs.Bool("quiet", false, "suppress the human-readable report")
		timeout    = fs.Duration("timeout", 0, "abort solving after this duration (0 = no limit)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *configPath == "" {
		fmt.Fprintln(stderr, "bbmap: -config is required")
		fs.Usage()
		return 2
	}
	cfg, err := taskgraph.ReadFile(*configPath)
	if err != nil {
		fmt.Fprintln(stderr, "bbmap:", err)
		return 1
	}
	ctx, cancel := cli.WithTimeout(ctx, *timeout)
	defer cancel()

	if *bind != "" {
		var br *binding.Result
		switch *bind {
		case "exhaustive":
			br, err = binding.Exhaustive(ctx, cfg, core.Options{}, 0)
		case "greedy":
			br, err = binding.Greedy(ctx, cfg, core.Options{}, 0)
		default:
			fmt.Fprintf(stderr, "bbmap: unknown binding mode %q\n", *bind)
			return 2
		}
		if err != nil {
			fmt.Fprintln(stderr, "bbmap:", err)
			return 1
		}
		fmt.Fprintf(stdout, "binding search (%s): evaluated %d candidates\n", *bind, br.Evaluated)
		cfg = br.Config
	}

	var res *core.Result
	switch *method {
	case "joint":
		if cfg.MultiRate() {
			// Multi-rate graphs use the hybrid solver (fixed-capacity cone
			// programs inside a capacity search).
			mr, merr := mrate.Solve(ctx, cfg)
			if merr != nil {
				fmt.Fprintln(stderr, "bbmap:", merr)
				return 1
			}
			res = &core.Result{
				Status:            mr.Status,
				Mapping:           mr.Mapping,
				ContinuousBudgets: mr.ContinuousBudgets,
				Verification:      mr.Verification,
			}
			break
		}
		res, err = core.Solve(ctx, cfg, core.Options{})
	case "budget-first":
		pol := core.BudgetMinimalRate
		switch *policy {
		case "fair-share":
			pol = core.BudgetFairShare
		case "minimal-rate":
		default:
			fmt.Fprintf(stderr, "bbmap: unknown policy %q\n", *policy)
			return 2
		}
		res, err = core.TwoPhaseBudgetFirst(ctx, cfg, pol, core.Options{})
	case "buffer-first":
		res, err = core.TwoPhaseBufferFirst(ctx, cfg, nil, core.Options{})
	default:
		fmt.Fprintf(stderr, "bbmap: unknown method %q\n", *method)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "bbmap:", err)
		return 1
	}

	if res.Status != core.StatusOptimal {
		// A flow that stopped before the cone solver has no solver status.
		if res.Report != nil {
			fmt.Fprintf(stdout, "status: %v (solver: %v)\n", res.Status, res.SolverStatus)
		} else {
			fmt.Fprintf(stdout, "status: %v\n", res.Status)
		}
		return 1
	}
	if !*quiet {
		report(stdout, cfg, res)
	}
	if *outPath != "" {
		if err := res.Mapping.WriteFile(*outPath); err != nil {
			fmt.Fprintln(stderr, "bbmap:", err)
			return 1
		}
	}
	return 0
}

// report prints the mapping with the relaxed values it was rounded from.
// The status line counts the cone solver's iterations when a single cone
// solve produced the result, and a relaxed value the method never computed
// prints as "-".
func report(w io.Writer, cfg *taskgraph.Config, res *core.Result) {
	if res.Report == nil {
		fmt.Fprintf(w, "status: %v\n\n", res.Status)
	} else {
		fmt.Fprintf(w, "status: %v (%d interior-point iterations)\n\n", res.Status, res.SolverIterations)
	}
	bt := textplot.NewTable("task", "processor", "budget (Mcycles)", "relaxed value")
	for _, tg := range cfg.Graphs {
		for _, task := range tg.Tasks {
			bt.AddRow(task.Name, task.Processor, res.Mapping.Budgets[task.Name], relaxed(res.ContinuousBudgets, task.Name))
		}
	}
	fmt.Fprintln(w, bt.String())
	ct := textplot.NewTable("buffer", "memory", "capacity (containers)", "relaxed tokens")
	for _, tg := range cfg.Graphs {
		for _, b := range tg.Buffers {
			ct.AddRow(b.Name, b.Memory, res.Mapping.Capacities[b.Name], relaxed(res.ContinuousDeltas, b.Name))
		}
	}
	fmt.Fprintln(w, ct.String())
	fmt.Fprintf(w, "objective: %.6g\n", res.Mapping.Objective)
	if v := res.Verification; v != nil {
		fmt.Fprintf(w, "verified: %v\n", v.OK)
		var names []string
		for g := range v.GraphMinPeriods {
			names = append(names, g)
		}
		sort.Strings(names)
		for _, g := range names {
			fmt.Fprintf(w, "  graph %s: model min period %.6g\n", g, v.GraphMinPeriods[g])
		}
	}
}

// relaxed returns the relaxed value of name, or NaN, which the table prints
// as "-", when the method did not compute one.
func relaxed(values map[string]float64, name string) float64 {
	if v, ok := values[name]; ok {
		return v
	}
	return math.NaN()
}
