package dfmodel

import (
	"fmt"
	"math"

	"repro/internal/srdf"
	"repro/internal/taskgraph"
)

// LatencyBound returns the smallest end-to-end latency bound, in Mcycles,
// achievable by any periodic admissible schedule of the mapping: the time
// from the k-th activation of task src to the completion of the k-th firing
// of task sink in graph tg, assuming the graph runs against a strictly
// periodic source at the graph's required rate.
//
// In a PAS with period µ, the k-th completion of sink happens no later than
// s(v2_sink) + (k−1)µ + ρ(v2_sink) and the k-th activation of src no
// earlier than s(v1_src) + (k−1)µ, so every PAS certifies the bound
// L = s(v2_sink) + ρ(v2_sink) − s(v1_src). The minimum over schedules is the
// longest path from src's v1 to sink's v2 in the constraint graph, which is
// what this function computes.
func LatencyBound(c *taskgraph.Config, tg *taskgraph.TaskGraph, m *taskgraph.Mapping, src, sink string) (float64, error) {
	g, idx, err := BuildGraph(c, tg, m)
	if err != nil {
		return 0, err
	}
	return latencyBound(g, idx, tg.Period, src, sink)
}

// latencyBound is LatencyBound on a graph already built by BuildGraph, with
// its index and the graph's required period, so Verify checks every latency
// constraint of a task graph on one build.
func latencyBound(g *srdf.Graph, idx *Index, period float64, src, sink string) (float64, error) {
	sa, ok := idx.Tasks[src]
	if !ok {
		return 0, fmt.Errorf("dfmodel: unknown source task %q", src)
	}
	ka, ok := idx.Tasks[sink]
	if !ok {
		return 0, fmt.Errorf("dfmodel: unknown sink task %q", sink)
	}
	d, err := g.LongestPaths(sa.V1, period)
	if err != nil {
		return 0, fmt.Errorf("dfmodel: mapping admits no PAS with period %v: %w", period, err)
	}
	if math.IsInf(d[ka.V2], -1) {
		return 0, fmt.Errorf("dfmodel: task %q is not downstream of %q", sink, src)
	}
	return d[ka.V2] + g.Actor(ka.V2).Duration, nil
}
