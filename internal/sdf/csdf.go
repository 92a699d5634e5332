package sdf

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/srdf"
)

// CSDF (cyclo-static dataflow) generalizes SDF: an actor cycles through a
// fixed sequence of phases, each with its own duration and per-edge
// production/consumption amounts (which may be zero). CSDF is the standard
// "more dynamic" model class beyond SDF (used, e.g., by the SDF3 tool suite)
// and another step toward the dynamic applications the paper's conclusion
// calls for. Analysis works by expansion: every phase firing becomes one
// actor of an equivalent single-rate graph.

// CSDFActor is an actor with cyclically repeating phases.
type CSDFActor struct {
	Name string
	// Durations holds one firing duration per phase (len = number of
	// phases, ≥ 1).
	Durations []float64
}

// CSDFEdge is a channel with per-phase rate sequences.
type CSDFEdge struct {
	Name     string
	From, To ActorID
	// ProdSeq[p] tokens are produced by phase p of From (len = phases of
	// From); ConsSeq[p] tokens are consumed by phase p of To. Entries may be
	// zero but each sequence must sum to at least 1.
	ProdSeq, ConsSeq []int
	Tokens           int
}

// CSDFGraph is a cyclo-static dataflow graph.
type CSDFGraph struct {
	actors []CSDFActor
	edges  []CSDFEdge
}

// NewCSDFGraph returns an empty graph.
func NewCSDFGraph() *CSDFGraph { return &CSDFGraph{} }

// AddActor adds an actor with the given per-phase durations.
func (g *CSDFGraph) AddActor(name string, durations ...float64) ActorID {
	g.actors = append(g.actors, CSDFActor{Name: name, Durations: durations})
	return ActorID(len(g.actors) - 1)
}

// AddEdge adds a channel with per-phase rate sequences.
func (g *CSDFGraph) AddEdge(name string, from, to ActorID, prodSeq, consSeq []int, tokens int) {
	g.edges = append(g.edges, CSDFEdge{
		Name: name, From: from, To: to,
		ProdSeq: append([]int(nil), prodSeq...),
		ConsSeq: append([]int(nil), consSeq...),
		Tokens:  tokens,
	})
}

// Phases returns the number of phases of actor a.
func (g *CSDFGraph) Phases(a ActorID) int { return len(g.actors[a].Durations) }

// Validate checks the graph's structural invariants.
func (g *CSDFGraph) Validate() error {
	if len(g.actors) == 0 {
		return errors.New("sdf: CSDF graph has no actors")
	}
	for i, a := range g.actors {
		if len(a.Durations) == 0 {
			return fmt.Errorf("sdf: CSDF actor %q (%d) has no phases", a.Name, i)
		}
		for _, d := range a.Durations {
			if d < 0 {
				return fmt.Errorf("sdf: CSDF actor %q has a negative phase duration", a.Name)
			}
		}
	}
	n := ActorID(len(g.actors))
	for i, e := range g.edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return fmt.Errorf("sdf: CSDF edge %q (%d) has invalid endpoints", e.Name, i)
		}
		if len(e.ProdSeq) != g.Phases(e.From) {
			return fmt.Errorf("sdf: CSDF edge %q production sequence length %d != %d phases",
				e.Name, len(e.ProdSeq), g.Phases(e.From))
		}
		if len(e.ConsSeq) != g.Phases(e.To) {
			return fmt.Errorf("sdf: CSDF edge %q consumption sequence length %d != %d phases",
				e.Name, len(e.ConsSeq), g.Phases(e.To))
		}
		if e.Tokens < 0 {
			return fmt.Errorf("sdf: CSDF edge %q has negative tokens", e.Name)
		}
		if sum(e.ProdSeq) < 1 || sum(e.ConsSeq) < 1 {
			return fmt.Errorf("sdf: CSDF edge %q has a zero-sum rate sequence", e.Name)
		}
		for _, v := range append(append([]int(nil), e.ProdSeq...), e.ConsSeq...) {
			if v < 0 {
				return fmt.Errorf("sdf: CSDF edge %q has a negative rate", e.Name)
			}
		}
	}
	return nil
}

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// RepetitionVector returns the number of complete phase CYCLES each actor
// runs per iteration (the CSDF balance equations over per-cycle totals).
func (g *CSDFGraph) RepetitionVector() ([]int, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	// Delegate to the SDF balance solver on the per-cycle totals.
	s := NewGraph()
	for _, a := range g.actors {
		s.AddActor(a.Name, 0)
	}
	for _, e := range g.edges {
		s.AddEdge(e.Name, e.From, e.To, sum(e.ProdSeq), sum(e.ConsSeq), e.Tokens)
	}
	return s.RepetitionVector()
}

// ToSRDF expands the CSDF graph: each phase firing of each actor per
// iteration becomes one SRDF actor (q(a)·phases(a) copies), sequenced
// cyclically, with token dependencies derived from the cumulative
// production/consumption counting functions.
func (g *CSDFGraph) ToSRDF() (*Expansion, error) {
	q, err := g.RepetitionVector()
	if err != nil {
		return nil, err
	}
	out := srdf.NewGraph()
	copies := make([][]srdf.ActorID, len(g.actors))
	for ai, a := range g.actors {
		per := q[ai] * len(a.Durations)
		copies[ai] = make([]srdf.ActorID, per)
		for j := 0; j < per; j++ {
			copies[ai][j] = out.AddActor(
				fmt.Sprintf("%s#%d.%d", a.Name, j/len(a.Durations), j%len(a.Durations)),
				a.Durations[j%len(a.Durations)])
		}
		for j := 0; j < per; j++ {
			next := (j + 1) % per
			tok := 0
			if next == 0 {
				tok = 1
			}
			out.AddEdge(fmt.Sprintf("%s.seq%d", a.Name, j), copies[ai][j], copies[ai][next], tok)
		}
	}
	for _, e := range g.edges {
		perFrom := q[e.From] * len(e.ProdSeq)
		perTo := q[e.To] * len(e.ConsSeq)
		// Per-iteration cumulative prefix arrays over phase firings.
		prodPrefix := prefix(e.ProdSeq, q[e.From])
		consPrefix := prefix(e.ConsSeq, q[e.To])
		perIterTokens := prodPrefix[perFrom] // = consPrefix[perTo] by balance
		if perIterTokens != consPrefix[perTo] {
			return nil, fmt.Errorf("sdf: CSDF edge %q is unbalanced after repetition", e.Name)
		}
		nStar := e.Tokens/perIterTokens + 2
		type key struct{ src, dst int }
		min := map[key]int{}
		for j := 0; j < perTo; j++ {
			lo := consPrefix[j]
			hi := consPrefix[j+1]
			for k := lo; k < hi; k++ {
				t := nStar*perIterTokens + k // global consumption index
				produced := t - e.Tokens
				if produced < 0 {
					return nil, fmt.Errorf("sdf: CSDF expansion underflow on edge %q", e.Name)
				}
				// Producing global phase firing: smallest f with
				// cumProd(f+1) > produced.
				m := produced / perIterTokens
				r := produced % perIterTokens
				idx := 0
				for prodPrefix[idx+1] <= r {
					idx++
				}
				f := m*perFrom + idx
				kk := key{f % perFrom, j}
				delta := nStar - f/perFrom
				if cur, ok := min[kk]; !ok || delta < cur {
					min[kk] = delta
				}
			}
		}
		// Add edges in sorted key order so edge IDs (and any failure text)
		// do not depend on map iteration order.
		keys := make([]key, 0, len(min))
		for kk := range min {
			keys = append(keys, kk)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].src != keys[j].src {
				return keys[i].src < keys[j].src
			}
			return keys[i].dst < keys[j].dst
		})
		for _, kk := range keys {
			delta := min[kk]
			if delta < 0 {
				return nil, fmt.Errorf("sdf: CSDF edge %q produced a negative distance", e.Name)
			}
			out.AddEdge(fmt.Sprintf("%s[%d->%d]", e.Name, kk.src, kk.dst),
				copies[e.From][kk.src], copies[e.To][kk.dst], delta)
		}
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return &Expansion{Graph: out, Copies: copies, Repetitions: q}, nil
}

// prefix returns the cumulative totals of seq repeated reps times:
// prefix[i] = tokens transferred by the first i phase firings of one
// iteration (len = reps·len(seq) + 1).
func prefix(seq []int, reps int) []int {
	out := make([]int, reps*len(seq)+1)
	for i := 0; i < reps*len(seq); i++ {
		out[i+1] = out[i] + seq[i%len(seq)]
	}
	return out
}

// IterationPeriod returns the minimum time per CSDF iteration (maximum
// cycle mean of the expansion).
func (g *CSDFGraph) IterationPeriod() (float64, error) {
	ex, err := g.ToSRDF()
	if err != nil {
		return 0, err
	}
	return ex.Graph.MinPeriodHoward()
}

// DeadlockFree reports whether the expanded graph is deadlock-free.
func (g *CSDFGraph) DeadlockFree() (bool, error) {
	ex, err := g.ToSRDF()
	if err != nil {
		return false, err
	}
	return ex.Graph.DeadlockFree(), nil
}
