// A multi-rate job — the "more dynamic applications" direction the paper
// names as future work: a 48 kHz → 16 kHz audio downsampler whose filter
// stage consumes 3 samples per output it produces. Multi-rate buffers make
// the expanded dataflow model's token distances non-affine in the capacity,
// so the hybrid solver in internal/mrate combines the paper's cone program
// (budgets, capacities fixed) with a monotone search over capacities.
//
// Run with: go run ./examples/downsampler
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/dfmodel"
	"repro/internal/mrate"
	"repro/internal/sim"
	"repro/internal/taskgraph"
	"repro/internal/textplot"
)

func main() {
	cfg := &taskgraph.Config{
		Name: "audio-downsampler",
		Processors: []taskgraph.Processor{
			{Name: "dsp0", Replenishment: 40},
			{Name: "dsp1", Replenishment: 40},
		},
		Memories: []taskgraph.Memory{{Name: "sram", Capacity: 128}},
		Graphs: []*taskgraph.TaskGraph{{
			Name: "resample",
			// One iteration = 3 capture firings + 1 filter firing + 1 sink
			// firing, every 12 Mcycles.
			Period: 12,
			Tasks: []taskgraph.Task{
				{Name: "capture", Processor: "dsp0", WCET: 0.5},
				{Name: "filter", Processor: "dsp1", WCET: 3},
				{Name: "sink", Processor: "dsp0", WCET: 0.5},
			},
			Buffers: []taskgraph.Buffer{
				// capture emits 1 sample per firing; filter consumes 3.
				{Name: "in", From: "capture", To: "filter", Memory: "sram", Cons: 3},
				// filter emits 1 result; sink consumes it.
				{Name: "out", From: "filter", To: "sink", Memory: "sram"},
			},
		}},
	}

	reps, err := dfmodel.Repetitions(cfg.Graphs[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("repetition vector: capture×%d, filter×%d, sink×%d per iteration\n\n",
		reps["capture"], reps["filter"], reps["sink"])

	res, err := mrate.Solve(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hybrid solve: %v (%d cone programs evaluated)\n\n", res.Status, res.Evaluated)

	tb := textplot.NewTable("task", "firings/iteration", "budget (Mcycles)")
	for _, w := range cfg.Graphs[0].Tasks {
		tb.AddRow(w.Name, reps[w.Name], res.Mapping.Budgets[w.Name])
	}
	fmt.Println(tb.String())
	ct := textplot.NewTable("buffer", "rates (prod:cons)", "capacity (containers)")
	for _, b := range cfg.Graphs[0].Buffers {
		ct.AddRow(b.Name, fmt.Sprintf("%d:%d", b.EffectiveProd(), b.EffectiveCons()),
			res.Mapping.Capacities[b.Name])
	}
	fmt.Println(ct.String())

	simres, err := sim.Run(cfg, res.Mapping, sim.Options{Firings: 300})
	if err != nil {
		log.Fatal(err)
	}
	if simres.Deadlocked {
		log.Fatal("unexpected deadlock")
	}
	fmt.Println("simulated 300 iterations under TDM:")
	for _, w := range cfg.Graphs[0].Tasks {
		st := simres.Tasks[w.Name]
		// Per-iteration period of this task: q firings per iteration.
		perIter := st.SteadyPeriod * float64(reps[w.Name])
		fmt.Printf("  %-8s %4d firings, %.4f Mcycles per iteration (requirement %g)\n",
			w.Name, st.Firings, perIter, cfg.Graphs[0].Period)
	}
	fmt.Println("(the window estimate carries a small transient bias; the per-firing")
	fmt.Println(" guarantee done(k) ≤ s(v2) + k·µ + ρ(v2) is checked exactly in the tests)")
}
