package srdf

import (
	"errors"
	"fmt"
	"math"
)

// feasTol is the absolute slack tolerance used when checking PAS constraints
// and positive-cycle detection on float durations.
const feasTol = 1e-7

// StartTimes computes periodic-admissible-schedule start times s(v) for the
// given period, satisfying the paper's Constraint (1):
//
//	s(vj) ≥ s(vi) + ρ(vi) − δ(eij)·period   for every edge eij.
//
// It returns an error when no PAS with this period exists (a positive cycle
// in the constraint graph). Start times are normalized so the earliest is 0.
func (g *Graph) StartTimes(period float64) ([]float64, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if period <= 0 {
		return nil, fmt.Errorf("srdf: period must be positive, got %v", period)
	}
	n := len(g.actors)
	s := make([]float64, n) // implicit virtual source: all start at 0
	// Bellman-Ford longest path with edge weight ρ(from) − δ·period.
	for round := 0; round < n; round++ {
		changed := false
		for _, e := range g.edges {
			w := g.actors[e.From].Duration - float64(e.Tokens)*period
			if cand := s[e.From] + w; cand > s[e.To]+feasTol {
				s[e.To] = cand
				changed = true
			}
		}
		if !changed {
			normalize(s)
			return s, nil
		}
	}
	return nil, fmt.Errorf("srdf: no PAS with period %v exists (positive cycle)", period)
}

func normalize(s []float64) {
	if len(s) == 0 {
		return
	}
	min := s[0]
	for _, v := range s[1:] {
		if v < min {
			min = v
		}
	}
	for i := range s {
		s[i] -= min
	}
}

// LongestPaths returns, for every actor v, the minimum feasible value of
// s(v) − s(source) over all periodic admissible schedules with the given
// period: the longest path from source in the constraint graph with edge
// weights ρ(from) − δ·period. Actors unreachable from source get -Inf.
// An error is returned when no PAS with this period exists.
func (g *Graph) LongestPaths(source ActorID, period float64) ([]float64, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if period <= 0 {
		return nil, fmt.Errorf("srdf: period must be positive, got %v", period)
	}
	if !g.FeasibleExact(period) {
		return nil, fmt.Errorf("srdf: no PAS with period %v exists (positive cycle)", period)
	}
	n := len(g.actors)
	d := make([]float64, n)
	for i := range d {
		d[i] = math.Inf(-1)
	}
	d[source] = 0
	for round := 0; round < n; round++ {
		changed := false
		for _, e := range g.edges {
			if math.IsInf(d[e.From], -1) {
				continue
			}
			w := g.actors[e.From].Duration - float64(e.Tokens)*period
			if cand := d[e.From] + w; cand > d[e.To]+feasTol {
				d[e.To] = cand
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return d, nil
}

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

// ErrDeadlock is returned by period computations on graphs that contain a
// token-free cycle.
var ErrDeadlock = errors.New("srdf: graph deadlocks (cycle without tokens)")

// FeasibleExact reports whether a PAS with the given period exists, by one
// strict Bellman-Ford run over the constraint graph of Constraint (1): no
// tolerance slack, unlike StartTimes and FeasiblePeriod, so a period just
// below the maximum cycle mean is rejected. It decides the period check of
// dfmodel.Verify. A token-free cycle of positive duration is infeasible at
// every period. The graph is assumed valid (see Validate).
func (g *Graph) FeasibleExact(period float64) bool {
	n := len(g.actors)
	s := make([]float64, n)
	for round := 0; round <= n; round++ {
		changed := false
		// Relaxing each actor's out-edges in actor order settles, in one
		// round, a path whose actors were added in order: a pipeline, or
		// a DAG built in topological order.
		for v, a := range g.actors {
			for _, eid := range g.out[v] {
				e := g.edges[eid]
				w := a.Duration - float64(e.Tokens)*period
				if cand := s[v] + w; cand > s[e.To]+1e-15*(1+math.Abs(s[e.To])) {
					s[e.To] = cand
					changed = true
				}
			}
		}
		if !changed {
			return true
		}
	}
	return false
}

// MinPeriodHoward returns the smallest feasible period, i.e. the maximum
// cycle mean max_C (Σ_{v∈C} ρ(v)) / (Σ_{e∈C} δ(e)), computed by Howard's
// policy iteration (see CriticalCycle). It returns 0 for acyclic graphs
// (any positive period is feasible) and ErrDeadlock for deadlocked graphs.
func (g *Graph) MinPeriodHoward() (float64, error) {
	_, mcm, err := g.CriticalCycle()
	return mcm, err
}

// CriticalCycle computes the maximum cycle ratio by Howard's multi-chain
// policy iteration and returns a cycle that attains it, as its actors in
// firing order starting from the one with the smallest id, together with
// the ratio. Acyclic graphs give a nil cycle and ratio 0; graphs with a
// token-free cycle give ErrDeadlock.
func (g *Graph) CriticalCycle() ([]ActorID, float64, error) {
	if err := g.Validate(); err != nil {
		return nil, 0, err
	}
	if !g.DeadlockFree() {
		return nil, 0, ErrDeadlock
	}
	n := len(g.actors)
	// Strip actors that cannot lie on or reach a cycle: repeatedly remove
	// nodes without out-edges into the remaining set.
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	for {
		changed := false
		for a := 0; a < n; a++ {
			if !alive[a] {
				continue
			}
			has := false
			for _, eid := range g.out[a] {
				if alive[g.edges[eid].To] {
					has = true
					break
				}
			}
			if !has {
				alive[a] = false
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	anyAlive := false
	for _, v := range alive {
		if v {
			anyAlive = true
		}
	}
	if !anyAlive {
		return nil, 0, nil // acyclic
	}

	cost := func(eid EdgeID) float64 { return g.actors[g.edges[eid].From].Duration }
	tTime := func(eid EdgeID) float64 { return float64(g.edges[eid].Tokens) }

	// Initial policy: first alive out-edge.
	policy := make([]EdgeID, n)
	for a := 0; a < n; a++ {
		if !alive[a] {
			continue
		}
		for _, eid := range g.out[a] {
			if alive[g.edges[eid].To] {
				policy[a] = eid
				break
			}
		}
	}

	lam := make([]float64, n)  // per-node cycle ratio under the policy
	d := make([]float64, n)    // relative values
	state := make([]int8, n)   // 0 new, 1 on current walk, 2 resolved
	order := make([]int, 0, n) // the current walk
	const maxIters = 100000
	for iter := 0; iter < maxIters; iter++ {
		// ---- Value determination for the functional policy graph ----
		clear(state)
		for a0 := 0; a0 < n; a0++ {
			if !alive[a0] || state[a0] != 0 {
				continue
			}
			// Walk until reaching a resolved node or closing a cycle.
			order = order[:0]
			cur := a0
			for state[cur] == 0 {
				state[cur] = 1
				order = append(order, cur)
				cur = int(g.edges[policy[cur]].To)
			}
			if state[cur] == 1 {
				// order[...] contains a tail then the cycle starting at cur.
				ci := 0
				for order[ci] != cur {
					ci++
				}
				cycle := order[ci:]
				var cSum, tSum float64
				for _, v := range cycle {
					cSum += cost(policy[v])
					tSum += tTime(policy[v])
				}
				if tSum <= 0 {
					return nil, 0, ErrDeadlock
				}
				r := cSum / tSum
				// Anchor the cycle head at 0 and propagate backwards so
				// d[v] = cost − r·time + d[next] holds around the cycle.
				d[cycle[0]] = 0
				lam[cycle[0]] = r
				for i := len(cycle) - 1; i >= 1; i-- {
					v := cycle[i]
					next := int(g.edges[policy[v]].To)
					lam[v] = r
					d[v] = cost(policy[v]) - r*tTime(policy[v]) + d[next]
					state[v] = 2
				}
				state[cycle[0]] = 2
				// Resolve the tail into the cycle.
				for i := ci - 1; i >= 0; i-- {
					v := order[i]
					next := int(g.edges[policy[v]].To)
					lam[v] = lam[next]
					d[v] = cost(policy[v]) - lam[v]*tTime(policy[v]) + d[next]
					state[v] = 2
				}
			} else {
				// Tail into an already-resolved region.
				for i := len(order) - 1; i >= 0; i-- {
					v := order[i]
					next := int(g.edges[policy[v]].To)
					lam[v] = lam[next]
					d[v] = cost(policy[v]) - lam[v]*tTime(policy[v]) + d[next]
					state[v] = 2
				}
			}
		}
		// ---- Policy improvement (lexicographic: ratio, then value) ----
		improved := false
		for v := 0; v < n; v++ {
			if !alive[v] {
				continue
			}
			for _, eid := range g.out[v] {
				u := int(g.edges[eid].To)
				if !alive[u] {
					continue
				}
				if lam[u] > lam[v]+1e-12*(1+math.Abs(lam[v])) {
					policy[v] = eid
					improved = true
				} else if math.Abs(lam[u]-lam[v]) <= 1e-12*(1+math.Abs(lam[v])) {
					val := cost(eid) - lam[v]*tTime(eid) + d[u]
					if val > d[v]+1e-9*(1+math.Abs(d[v])) {
						policy[v] = eid
						d[v] = val
						improved = true
					}
				}
			}
		}
		if !improved {
			cycle, mcm := g.policyCycle(alive, lam, policy, state)
			return cycle, mcm, nil
		}
	}
	return nil, 0, errors.New("srdf: Howard iteration did not converge")
}

// policyCycle returns the cycle of the final Howard policy that carries the
// largest ratio, rotated to start at its smallest actor id, and that ratio.
// state is scratch space of length NumActors.
func (g *Graph) policyCycle(alive []bool, lam []float64, policy []EdgeID, state []int8) ([]ActorID, float64) {
	best, start := 0.0, -1
	for v := range lam {
		if alive[v] && (start < 0 || lam[v] > best) {
			best, start = lam[v], v
		}
	}
	next := func(v int) int { return int(g.edges[policy[v]].To) }
	// Every alive node's policy walk ends on the cycle whose ratio it
	// carries; the first node seen twice lies on that cycle.
	clear(state)
	cur := start
	for state[cur] == 0 {
		state[cur] = 1
		cur = next(cur)
	}
	head := cur
	for v := next(cur); v != cur; v = next(v) {
		head = min(head, v)
	}
	cycle := []ActorID{ActorID(head)}
	for v := next(head); v != head; v = next(v) {
		cycle = append(cycle, ActorID(v))
	}
	return cycle, best
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
	// Fixed-point iteration in topological-ish sweeps: σ(v, j) =
	// max over in-edges e=(u→v) with j − δ(e) ≥ 1 of σ(u, j−δ(e)) + ρ(u).
	// Because dependencies can span firing indices, iterate until stable.
	for sweep := 0; sweep < n*k+2; sweep++ {
		changed := false
		for a := 0; a < n; a++ {
			for j := 0; j < k; j++ {
				v := 0.0
				for _, eid := range g.in[a] {
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
