package srdf

import (
	"errors"
	"math"
)

// This file holds Lawler's binary search for the maximum cycle mean. It is
// the test oracle for Howard's policy iteration (MinPeriodHoward,
// CriticalCycle) and for the FeasibleExact decision, so it carries its own
// copy of the strict Bellman-Ford test. MinPeriod is exported so the
// external srdf_test package can use it too; it is compiled only into tests.

// MinPeriod returns the smallest feasible period, i.e. the maximum cycle
// mean max_C (Σ_{v∈C} ρ(v)) / (Σ_{e∈C} δ(e)), computed by Lawler's binary
// search with Bellman-Ford feasibility tests. The result is accurate to a
// relative tolerance of about 1e-12. Returns 0 for acyclic graphs (any
// positive period is feasible) and ErrDeadlock for deadlocked graphs.
func (g *Graph) MinPeriod() (float64, error) {
	if err := g.Validate(); err != nil {
		return 0, err
	}
	if !g.DeadlockFree() {
		return 0, ErrDeadlock
	}
	// Upper bound: sum of all durations (a simple cycle visits each actor at
	// most once and carries at least one token).
	var hi float64
	for _, a := range g.actors {
		hi += a.Duration
	}
	if hi == 0 {
		return 0, nil
	}
	if g.lawlerFeasible(0) {
		return 0, nil // acyclic (or all cycles have zero duration)
	}
	lo := 0.0
	// hi must be feasible.
	for !g.lawlerFeasible(hi) {
		hi *= 2 // defensive; should not trigger
		if math.IsInf(hi, 1) {
			return 0, errors.New("srdf: failed to bracket the minimum period")
		}
	}
	for iter := 0; iter < 100 && hi-lo > 1e-12*hi; iter++ {
		mid := (lo + hi) / 2
		if g.lawlerFeasible(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// lawlerFeasible is the strict Bellman-Ford feasibility test of the binary
// search: no tolerance slack, so the bisection brackets the true MCM.
func (g *Graph) lawlerFeasible(period float64) bool {
	n := len(g.actors)
	s := make([]float64, n)
	for round := 0; round <= n; round++ {
		changed := false
		for _, e := range g.edges {
			w := g.actors[e.From].Duration - float64(e.Tokens)*period
			if cand := s[e.From] + w; cand > s[e.To]+1e-15*(1+math.Abs(s[e.To])) {
				s[e.To] = cand
				changed = true
			}
		}
		if !changed {
			return true
		}
	}
	return false
}
