// Package sdf implements multi-rate synchronous dataflow (SDF) graphs (Lee &
// Messerschmitt, 1987) on top of the single-rate machinery in internal/srdf:
// repetition vectors via the balance equations, consistency and deadlock
// analysis, and the classical HSDF expansion that turns an SDF graph into an
// equivalent single-rate graph for throughput analysis.
//
// The paper restricts itself to task graphs expressible as single-rate
// dataflow and names "more dynamic applications" as the essential next step;
// this package provides the multi-rate analysis substrate for that
// direction: an SDF-modelled job can be expanded and fed through the same
// period/PAS analyses used everywhere else in this repository.
package sdf

import (
	"errors"
	"fmt"
	"math/big"

	"repro/internal/srdf"
)

// ActorID identifies an actor.
type ActorID int

// Actor is an SDF actor with a firing duration.
type Actor struct {
	Name     string
	Duration float64
}

// Edge is an SDF channel: each firing of From produces Prod tokens, each
// firing of To consumes Cons tokens; Tokens are initially present.
type Edge struct {
	Name       string
	From, To   ActorID
	Prod, Cons int
	Tokens     int
}

// Graph is a multi-rate SDF graph.
type Graph struct {
	actors []Actor
	edges  []Edge
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{} }

// AddActor adds an actor and returns its id.
func (g *Graph) AddActor(name string, duration float64) ActorID {
	g.actors = append(g.actors, Actor{Name: name, Duration: duration})
	return ActorID(len(g.actors) - 1)
}

// AddEdge adds a channel with the given rates and initial tokens.
func (g *Graph) AddEdge(name string, from, to ActorID, prod, cons, tokens int) {
	g.edges = append(g.edges, Edge{Name: name, From: from, To: to, Prod: prod, Cons: cons, Tokens: tokens})
}

// NumActors returns the number of actors.
func (g *Graph) NumActors() int { return len(g.actors) }

// Actor returns actor a.
func (g *Graph) Actor(a ActorID) Actor { return g.actors[a] }

// Validate checks rates, durations, and endpoints.
func (g *Graph) Validate() error {
	if len(g.actors) == 0 {
		return errors.New("sdf: graph has no actors")
	}
	for i, a := range g.actors {
		if a.Duration < 0 {
			return fmt.Errorf("sdf: actor %q (%d) has negative duration", a.Name, i)
		}
	}
	n := ActorID(len(g.actors))
	for i, e := range g.edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return fmt.Errorf("sdf: edge %q (%d) has invalid endpoints", e.Name, i)
		}
		if e.Prod < 1 || e.Cons < 1 {
			return fmt.Errorf("sdf: edge %q (%d) has non-positive rates", e.Name, i)
		}
		if e.Tokens < 0 {
			return fmt.Errorf("sdf: edge %q (%d) has negative tokens", e.Name, i)
		}
	}
	return nil
}

// ErrInconsistent is returned when the balance equations have no positive
// solution (sample-rate inconsistency: unbounded token accumulation).
var ErrInconsistent = errors.New("sdf: graph is sample-rate inconsistent")

// RepetitionVector solves the balance equations q(from)·prod = q(to)·cons
// for every edge and returns the smallest positive integer solution per
// weakly connected component. Returns ErrInconsistent when none exists.
func (g *Graph) RepetitionVector() ([]int, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	n := len(g.actors)
	ratio := make([]*big.Rat, n) // q(a) relative to its component root
	adj := make([][]int, n)      // edge indices touching each actor
	for ei, e := range g.edges {
		adj[e.From] = append(adj[e.From], ei)
		adj[e.To] = append(adj[e.To], ei)
	}
	for root := 0; root < n; root++ {
		if ratio[root] != nil {
			continue
		}
		ratio[root] = big.NewRat(1, 1)
		stack := []int{root}
		for len(stack) > 0 {
			a := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, ei := range adj[a] {
				e := g.edges[ei]
				// q(to) = q(from)·prod/cons.
				var other int
				var want *big.Rat
				if int(e.From) == a {
					other = int(e.To)
					want = new(big.Rat).Mul(ratio[a], big.NewRat(int64(e.Prod), int64(e.Cons)))
				} else {
					other = int(e.From)
					want = new(big.Rat).Mul(ratio[a], big.NewRat(int64(e.Cons), int64(e.Prod)))
				}
				if ratio[other] == nil {
					ratio[other] = want
					stack = append(stack, other)
				} else if ratio[other].Cmp(want) != 0 {
					return nil, ErrInconsistent
				}
			}
		}
	}
	// Scale each component to the smallest positive integers: multiply by
	// the lcm of denominators, divide by the gcd of numerators (per
	// component; components are independent, so a global scaling per
	// component keeps the vector minimal).
	comp := make([]int, n) // component id per actor (root index)
	for i := range comp {
		comp[i] = -1
	}
	for root := 0; root < n; root++ {
		if comp[root] != -1 {
			continue
		}
		// BFS again to mark the component.
		comp[root] = root
		stack := []int{root}
		for len(stack) > 0 {
			a := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, ei := range adj[a] {
				e := g.edges[ei]
				for _, o := range []int{int(e.From), int(e.To)} {
					if comp[o] == -1 {
						comp[o] = root
						stack = append(stack, o)
					}
				}
			}
		}
	}
	q := make([]int, n)
	for root := 0; root < n; root++ {
		var members []int
		for a := 0; a < n; a++ {
			if comp[a] == root {
				members = append(members, a)
			}
		}
		if len(members) == 0 {
			continue
		}
		lcmDen := big.NewInt(1)
		for _, a := range members {
			lcmDen = lcm(lcmDen, ratio[a].Denom())
		}
		gcdNum := big.NewInt(0)
		scaled := map[int]*big.Int{}
		for _, a := range members {
			v := new(big.Int).Mul(ratio[a].Num(), new(big.Int).Div(lcmDen, ratio[a].Denom()))
			scaled[a] = v
			gcdNum = new(big.Int).GCD(nil, nil, gcdNum, v)
		}
		for _, a := range members {
			v := new(big.Int).Div(scaled[a], gcdNum)
			if !v.IsInt64() || v.Int64() <= 0 {
				return nil, fmt.Errorf("sdf: repetition count of actor %q overflows", g.actors[a].Name)
			}
			q[a] = int(v.Int64())
		}
	}
	return q, nil
}

func lcm(a, b *big.Int) *big.Int {
	g := new(big.Int).GCD(nil, nil, a, b)
	return new(big.Int).Mul(new(big.Int).Div(a, g), b)
}

// Consistent reports whether the graph has a valid repetition vector.
func (g *Graph) Consistent() bool {
	_, err := g.RepetitionVector()
	return err == nil
}

// Expansion is the result of the HSDF expansion: an equivalent single-rate
// graph plus the mapping from SDF actors to their firing copies.
type Expansion struct {
	Graph *srdf.Graph
	// Copies[a] lists the SRDF actors for firings 0..q(a)-1 of SDF actor a.
	Copies [][]srdf.ActorID
	// Repetitions is the repetition vector used.
	Repetitions []int
}

// ToSRDF expands the SDF graph into an equivalent homogeneous (single-rate)
// graph: actor a becomes q(a) copies fired round-robin (auto-concurrency is
// disabled by a sequencing cycle through the copies), and every
// token-consumption dependency becomes an SRDF edge with the appropriate
// iteration distance.
func (g *Graph) ToSRDF() (*Expansion, error) {
	q, err := g.RepetitionVector()
	if err != nil {
		return nil, err
	}
	out := srdf.NewGraph()
	copies := make([][]srdf.ActorID, len(g.actors))
	for a, act := range g.actors {
		copies[a] = make([]srdf.ActorID, q[a])
		for j := 0; j < q[a]; j++ {
			copies[a][j] = out.AddActor(fmt.Sprintf("%s#%d", act.Name, j), act.Duration)
		}
		// Sequencing cycle: firing j precedes firing j+1; the last firing of
		// one iteration precedes the first of the next (1 token).
		for j := 0; j < q[a]; j++ {
			next := (j + 1) % q[a]
			tok := 0
			if next == 0 {
				tok = 1
			}
			out.AddEdge(fmt.Sprintf("%s.seq%d", act.Name, j), copies[a][j], copies[a][next], tok)
		}
	}
	for _, e := range g.edges {
		qa, qb := q[e.From], q[e.To]
		// Choose an iteration n* large enough that every consumed token in
		// that iteration was produced (not initial).
		nStar := (e.Tokens/(e.Prod*qa) + 2)
		for j := 0; j < qb; j++ {
			for k := 0; k < e.Cons; k++ {
				tokenIdx := (nStar*qb+j)*e.Cons + k // global consumption index
				produced := tokenIdx - e.Tokens
				if produced < 0 {
					continue // consumed from initial tokens forever? no: only shifts; nStar prevents this
				}
				f := produced / e.Prod // global producing firing
				l := f % qa            // producer copy
				m := f / qa            // producer iteration
				delta := nStar - m     // iteration distance
				if delta < 0 {
					return nil, fmt.Errorf("sdf: negative iteration distance on edge %q", e.Name)
				}
				out.AddEdge(fmt.Sprintf("%s[%d.%d]", e.Name, j, k),
					copies[e.From][l], copies[e.To][j], delta)
			}
		}
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return &Expansion{Graph: out, Copies: copies, Repetitions: q}, nil
}

// DeadlockFree reports whether the expanded graph is deadlock-free.
func (g *Graph) DeadlockFree() (bool, error) {
	ex, err := g.ToSRDF()
	if err != nil {
		return false, err
	}
	return ex.Graph.DeadlockFree(), nil
}

// IterationPeriod returns the minimum time per SDF iteration (one iteration
// = q(a) firings of every actor a): the maximum cycle mean of the HSDF
// expansion. An actor a therefore fires at most q(a)/IterationPeriod times
// per time unit in the long run.
func (g *Graph) IterationPeriod() (float64, error) {
	ex, err := g.ToSRDF()
	if err != nil {
		return 0, err
	}
	return ex.Graph.MinPeriodHoward()
}
