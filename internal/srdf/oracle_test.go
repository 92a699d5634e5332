package srdf

import (
	"errors"
	"fmt"
)

// This file holds the analyses the tests check the production ones
// against: self-timed (ASAP) execution, whose steady-state rate equals
// 1/MCM by SRDF theory and so checks MinPeriodHoward independently, the
// PAS check of Constraint (1) for computed start times, and a deep copy
// for the monotonicity properties. Nothing outside the tests needs them.

// CheckPAS verifies that the start times s satisfy Constraint (1) for the
// given period, returning the most violated edge if any.
func (g *Graph) CheckPAS(s []float64, period float64) error {
	if len(s) != len(g.actors) {
		return fmt.Errorf("srdf: %d start times for %d actors", len(s), len(g.actors))
	}
	worst := 0.0
	worstEdge := -1
	for i, e := range g.edges {
		lhs := s[e.From] + g.actors[e.From].Duration - float64(e.Tokens)*period
		if v := lhs - s[e.To]; v > worst {
			worst = v
			worstEdge = i
		}
	}
	if worst > feasTol*(1+period) {
		e := g.edges[worstEdge]
		return fmt.Errorf("srdf: edge %q (%d) violates Constraint (1) by %v", e.Name, worstEdge, worst)
	}
	return nil
}

// FeasiblePeriod reports whether a PAS with the given period exists.
func (g *Graph) FeasiblePeriod(period float64) bool {
	_, err := g.StartTimes(period)
	return err == nil
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

// SelfTimed simulates self-timed (ASAP) execution for k firings of every
// actor and returns the start time of each firing: start[a][i] is the start
// of firing i+1 of actor a. SRDF theory guarantees the steady-state rate
// equals 1/MCM, which makes this an independent oracle for MinPeriodHoward.
func (g *Graph) SelfTimed(k int) ([][]float64, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if !g.DeadlockFree() {
		return nil, ErrDeadlock
	}
	n := len(g.actors)
	start := make([][]float64, n)
	for a := range start {
		start[a] = make([]float64, k)
	}
	in := make([][]EdgeID, n) // in[a] lists edges with To == a
	for id, e := range g.edges {
		in[e.To] = append(in[e.To], EdgeID(id))
	}
	// Fixed-point iteration in topological-ish sweeps: σ(v, j) =
	// max over in-edges e=(u→v) with j − δ(e) ≥ 1 of σ(u, j−δ(e)) + ρ(u).
	// Because dependencies can span firing indices, iterate until stable.
	for sweep := 0; sweep < n*k+2; sweep++ {
		changed := false
		for a := 0; a < n; a++ {
			for j := 0; j < k; j++ {
				v := 0.0
				for _, eid := range in[a] {
					e := g.edges[eid]
					dep := j - e.Tokens
					if dep >= 0 {
						if cand := start[e.From][dep] + g.actors[e.From].Duration; cand > v {
							v = cand
						}
					}
				}
				if v > start[a][j] {
					start[a][j] = v
					changed = true
				}
			}
		}
		if !changed {
			return start, nil
		}
	}
	return nil, errors.New("srdf: self-timed simulation did not stabilize")
}

// SelfTimedRate estimates the steady-state period from a self-timed run of k
// firings by averaging the per-firing increment over the second half of the
// run (the transient phase decays geometrically).
func (g *Graph) SelfTimedRate(k int) (float64, error) {
	if k < 4 {
		return 0, errors.New("srdf: need at least 4 firings to estimate the rate")
	}
	start, err := g.SelfTimed(k)
	if err != nil {
		return 0, err
	}
	// Use the actor with the largest spread to estimate the rate.
	best := 0.0
	for a := range start {
		half := k / 2
		rate := (start[a][k-1] - start[a][half]) / float64(k-1-half)
		if rate > best {
			best = rate
		}
	}
	return best, nil
}
