package socp

import "repro/internal/linalg"

// WarmStart is an initial primal/dual iterate (x, s, z) in the problem's
// original (unequilibrated) coordinates, typically harvested from the
// solution of a neighboring problem — the previous point of a capacity
// sweep, the previous weight ratio of a Pareto scan, or the previous probe
// of a bisection. The solver maps it into its internal scaling, shifts s
// and z safely into the cone interior (a converged neighbor sits on the
// boundary, where the NT scaling is singular), and starts the
// predictor-corrector iteration from there instead of the least-squares
// cold start. A warm start never changes what the solver converges to —
// only how many iterations it takes to get there — and an unusable one
// (wrong dimensions, non-finite entries) is silently replaced by the cold
// start.
type WarmStart struct {
	X linalg.Vector // primal variables
	S linalg.Vector // primal slacks, should be (near) K
	Z linalg.Vector // duals of Gx + s = h, should be (near) K
}

// Warm extracts a warm start from a solved problem's solution, cloning the
// iterate so the solution and any later solve stay independent. It returns
// nil when the solution carries no usable interior point — nil solution,
// infeasibility certificates, numerical failure, or missing vectors — so
// callers can thread `sol.Warm()` unconditionally.
func (s *Solution) Warm() *WarmStart {
	if s == nil {
		return nil
	}
	switch s.Status {
	case StatusOptimal, StatusMaxIterations:
		// Both end on a strictly interior (if barely) iterate worth reusing.
	default:
		return nil
	}
	if s.X == nil || s.S == nil || s.Z == nil {
		return nil
	}
	return &WarmStart{
		X: s.X.Clone(),
		S: s.S.Clone(),
		Z: s.Z.Clone(),
	}
}
