package core_test

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/taskgraph"
)

// ExampleSolve is the README's quick start: a producer and a consumer on
// two processors, connected by one FIFO in a shared memory. Keep the two in
// step; this copy is the one the tests compile and run.
func ExampleSolve() {
	cfg := &taskgraph.Config{
		Processors: []taskgraph.Processor{
			{Name: "dsp0", Replenishment: 40},
			{Name: "dsp1", Replenishment: 40},
		},
		Memories: []taskgraph.Memory{{Name: "sram", Capacity: 64}},
		Graphs: []*taskgraph.TaskGraph{{
			Name: "stream", Period: 10, // one firing of every task per 10 Mcycles
			Tasks: []taskgraph.Task{
				{Name: "producer", Processor: "dsp0", WCET: 1},
				{Name: "consumer", Processor: "dsp1", WCET: 1},
			},
			Buffers: []taskgraph.Buffer{{
				Name: "fifo", From: "producer", To: "consumer", Memory: "sram",
			}},
		}},
	}
	res, err := core.Solve(context.Background(), cfg, core.Options{})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(res.Status, "verified:", res.Verification.OK)
	fmt.Println("fifo capacity:", res.Mapping.Capacities["fifo"])
	// Output:
	// optimal verified: true
	// fifo capacity: 10
}
