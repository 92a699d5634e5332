// Package srdf implements single-rate dataflow (SRDF) graphs — also known as
// homogeneous synchronous dataflow graphs, computation graphs, or marked
// graphs — and the temporal analyses the paper builds on:
//
//   - existence of a periodic admissible schedule (PAS) with a given period
//     (the paper's Constraint (1)),
//   - a strict Bellman-Ford decision of whether a PAS with a given period
//     exists (FeasibleExact),
//   - the minimum feasible period, i.e. the maximum cycle mean
//     max over cycles of (Σ firing durations)/(Σ tokens), and a cycle
//     attaining it, by Howard's policy iteration (Lawler's binary search
//     survives in the tests as the oracle),
//   - PAS start times via Bellman-Ford longest paths,
//   - self-timed (ASAP) execution, whose steady-state rate equals 1/MCM by
//     SRDF theory and which provides an independent check on the analyses.
//
// Actors fire as soon as every input queue holds a token; each firing of
// actor v takes ρ(v) time, consumes one token per input queue and produces
// one token per output queue.
package srdf

import (
	"errors"
	"fmt"
)

// ActorID identifies an actor within a Graph.
type ActorID int

// EdgeID identifies an edge (token queue) within a Graph.
type EdgeID int

// Actor is a dataflow actor with a fixed firing duration.
type Actor struct {
	Name     string
	Duration float64 // ρ(v) ≥ 0
}

// Edge is a token queue from actor From to actor To carrying an initial
// number of tokens.
type Edge struct {
	Name     string
	From, To ActorID
	Tokens   int // δ(e) ≥ 0
}

// Graph is a directed multigraph of actors and token queues.
type Graph struct {
	actors []Actor
	edges  []Edge
	out    [][]EdgeID // adjacency: out[a] lists edges with From == a
	in     [][]EdgeID
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{} }

// AddActor adds an actor and returns its id.
func (g *Graph) AddActor(name string, duration float64) ActorID {
	g.actors = append(g.actors, Actor{Name: name, Duration: duration})
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return ActorID(len(g.actors) - 1)
}

// AddEdge adds a queue with the given initial tokens and returns its id.
func (g *Graph) AddEdge(name string, from, to ActorID, tokens int) EdgeID {
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{Name: name, From: from, To: to, Tokens: tokens})
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	return id
}

// NumActors returns the number of actors.
func (g *Graph) NumActors() int { return len(g.actors) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Actor returns the actor with the given id.
func (g *Graph) Actor(id ActorID) Actor { return g.actors[id] }

// Edge returns the edge with the given id.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// SetDuration updates an actor's firing duration.
func (g *Graph) SetDuration(id ActorID, d float64) { g.actors[id].Duration = d }

// SetTokens updates an edge's initial token count.
func (g *Graph) SetTokens(id EdgeID, tokens int) { g.edges[id].Tokens = tokens }

// OutEdges returns the ids of edges leaving a (shared slice; do not modify).
func (g *Graph) OutEdges(a ActorID) []EdgeID { return g.out[a] }

// InEdges returns the ids of edges entering a (shared slice; do not modify).
func (g *Graph) InEdges(a ActorID) []EdgeID { return g.in[a] }

// Validate checks internal consistency: durations and token counts must be
// nonnegative and edge endpoints valid.
func (g *Graph) Validate() error {
	if len(g.actors) == 0 {
		return errors.New("srdf: graph has no actors")
	}
	for i, a := range g.actors {
		if a.Duration < 0 {
			return fmt.Errorf("srdf: actor %q (%d) has negative duration %v", a.Name, i, a.Duration)
		}
	}
	n := ActorID(len(g.actors))
	for i, e := range g.edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return fmt.Errorf("srdf: edge %q (%d) has invalid endpoints", e.Name, i)
		}
		if e.Tokens < 0 {
			return fmt.Errorf("srdf: edge %q (%d) has negative tokens %d", e.Name, i, e.Tokens)
		}
	}
	return nil
}

// DeadlockFree reports whether every cycle carries at least one token.
// A cycle with zero tokens can never fire and deadlocks the graph. The check
// looks for a cycle in the subgraph of token-free edges.
func (g *Graph) DeadlockFree() bool {
	// Colors: 0 = unvisited, 1 = on stack, 2 = done.
	color := make([]byte, len(g.actors))
	var visit func(a ActorID) bool // returns true if a zero-token cycle found
	visit = func(a ActorID) bool {
		color[a] = 1
		for _, eid := range g.out[a] {
			e := g.edges[eid]
			if e.Tokens > 0 {
				continue
			}
			switch color[e.To] {
			case 1:
				return true
			case 0:
				if visit(e.To) {
					return true
				}
			}
		}
		color[a] = 2
		return false
	}
	for a := range g.actors {
		if color[a] == 0 && visit(ActorID(a)) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := NewGraph()
	for _, a := range g.actors {
		c.AddActor(a.Name, a.Duration)
	}
	for _, e := range g.edges {
		c.AddEdge(e.Name, e.From, e.To, e.Tokens)
	}
	return c
}
