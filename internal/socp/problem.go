// Package socp implements a from-scratch primal-dual interior-point solver
// for second-order cone programs in the standard conic form
//
//	minimize    cᵀx
//	subject to  G x + s = h,   s ∈ K,
//
// where K = R₊ˡ × Q^{q₁} × … × Q^{qN} is a product of a nonnegative orthant
// and second-order cones. The algorithm is an infeasible-start Mehrotra
// predictor-corrector method with Nesterov-Todd scaling — the same
// polynomial-complexity interior-point family the paper relies on (it used
// the commercial CPLEX solver; this package is the stdlib-only replacement).
//
// The solver detects primal and dual infeasibility through Farkas
// certificates and reports the findings in Solution.Status.
package socp

import (
	"fmt"
	"io"
	"os"

	"repro/internal/cone"
	"repro/internal/linalg"
)

// Problem is a conic program in inequality standard form: Algorithm 1 has
// inequality and cone constraints only, so there are no equality rows. The
// constraint matrix is given either in CSR form in GSparse — what the Builder emits — or densely
// in G, exactly one of the two, and must have Dims.Dim() rows. The solver
// works on CSR only: a dense G is converted once at the start of a solve,
// to the same pattern and values the Builder would emit, so the two
// carriers solve bit-identically.
type Problem struct {
	C       linalg.Vector
	G       *linalg.Matrix
	GSparse *linalg.SparseMatrix
	H       linalg.Vector
	// A must be nil: Validate rejects a problem that sets it. The field
	// stays only because the benchmark module reads A.Rows.
	A    *linalg.Matrix
	Dims cone.Dims
}

// Validate checks the problem shapes.
func (p *Problem) Validate() error {
	if err := p.Dims.Validate(); err != nil {
		return err
	}
	n := len(p.C)
	m := p.Dims.Dim()
	switch {
	case p.G == nil && p.GSparse == nil:
		return fmt.Errorf("socp: G is nil")
	case p.G != nil && p.GSparse != nil:
		return fmt.Errorf("socp: both G and GSparse are set; supply exactly one")
	case p.G != nil && (p.G.Rows != m || p.G.Cols != n):
		return fmt.Errorf("socp: G is %dx%d, want %dx%d", p.G.Rows, p.G.Cols, m, n)
	case p.GSparse != nil && (p.GSparse.Rows != m || p.GSparse.Cols != n):
		return fmt.Errorf("socp: GSparse is %dx%d, want %dx%d", p.GSparse.Rows, p.GSparse.Cols, m, n)
	}
	if len(p.H) != m {
		return fmt.Errorf("socp: |h| = %d, want %d", len(p.H), m)
	}
	if p.A != nil {
		return fmt.Errorf("socp: A is set; equality constraints are not supported")
	}
	if m == 0 {
		return fmt.Errorf("socp: problem has no constraints")
	}
	return nil
}

// NumVars returns the number of decision variables.
func (p *Problem) NumVars() int { return len(p.C) }

// Status describes the outcome of a solve.
type Status int

const (
	// StatusOptimal: converged to the required tolerances.
	StatusOptimal Status = iota
	// StatusPrimalInfeasible: a Farkas certificate of primal infeasibility
	// was found (no x satisfies the constraints).
	StatusPrimalInfeasible
	// StatusDualInfeasible: a certificate of dual infeasibility was found
	// (the primal is unbounded below or ill-posed).
	StatusDualInfeasible
	// StatusMaxIterations: the iteration limit was reached; the best iterate
	// is returned but may be inaccurate.
	StatusMaxIterations
	// StatusNumericalError: the linear algebra broke down before reaching
	// the tolerances.
	StatusNumericalError
	// StatusCanceled: the context passed to SolveContext was canceled or
	// its deadline expired before the solve converged. The solution carries
	// the last iterate's diagnostics but no usable point.
	StatusCanceled
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusPrimalInfeasible:
		return "primal infeasible"
	case StatusDualInfeasible:
		return "dual infeasible"
	case StatusMaxIterations:
		return "max iterations"
	case StatusNumericalError:
		return "numerical error"
	case StatusCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution holds the result of a solve.
type Solution struct {
	Status    Status
	X         linalg.Vector // primal variables
	S         linalg.Vector // primal slacks, ∈ K
	Z         linalg.Vector // dual variables for Gx + s = h, ∈ K
	PrimalObj float64       // cᵀx
	DualObj   float64       // −hᵀz
	Gap       float64       // sᵀz
	RelGap    float64
	PrimalRes float64 // relative primal residual
	DualRes   float64 // relative dual residual
	// Iterations is the number of interior-point passes the solve ran,
	// also when it reports an earlier, better iterate.
	Iterations int
	// LinearSolves is the number of factored solves of the KKT system, one
	// per Newton right-hand side plus one per refinement correction.
	LinearSolves int
}

// Options configures the solver. The zero value selects the defaults.
type Options struct {
	MaxIter  int     // default 100
	FeasTol  float64 // default 1e-7
	AbsTol   float64 // default 1e-9
	RelTol   float64 // default 1e-9
	StepFrac float64 // fraction of the step to the boundary, default 0.99
	// KKTReg is the static regularization added to the normal-equations
	// diagonal; default 1e-13 (scaled by the matrix norm).
	KKTReg float64
	// Factorization selects the sparse factorization backend of the KKT
	// system. FactorSparse runs the simplicial LDLᵀ pipeline
	// (fill-reducing AMD ordering, elimination tree, and symbolic
	// factorization computed once per problem; numeric refactorization per
	// iteration). FactorSupernodal runs the blocked supernodal LDLᵀ on the
	// same symbolic analysis — dense column panels, register-blocked update
	// kernels, and an optional worker pool (see FactorWorkers); it runs only
	// when asked for, because on the KKT systems Algorithm 1 produces the
	// simplicial kernel is faster. FactorAuto, the default, runs the
	// simplicial backend (ResolveFactorization).
	Factorization Factorization
	// FactorWorkers bounds the supernodal backend's intra-factorization
	// worker pool. Values ≤ 1 run serially — the default, because sweep
	// drivers already parallelize across solves and oversubscription helps
	// nothing. Results are bitwise identical at every setting: the scheduler
	// assigns each panel to exactly one worker and fixes every reduction
	// order. Ignored by the simplicial backend.
	FactorWorkers int
	// WarmStart optionally supplies an initial primal/dual iterate in the
	// problem's original coordinates, usually a neighboring problem's
	// solution (see WarmStart and Solution.Warm). The solver shifts it
	// safely into the cone interior and iterates from there; an unusable
	// iterate falls back to the cold least-squares start. nil (the default)
	// is the cold start, and a solve with WarmStart == nil is bit-identical
	// to one on a build without warm-start support.
	WarmStart *WarmStart
	// Cache optionally pools the whole solve space — the symbolic work of
	// the sparse KKT pipeline (AᵀA scatter plans, AMD orderings,
	// elimination trees, symbolic factorizations), its numeric workspace
	// and every other buffer a solve uses — across solves whose constraint
	// matrices have the same sparsity pattern and cone (every point of a
	// sweep over one topology). The cache is safe for concurrent solves and
	// only ever changes where buffers come from, never any computed value:
	// solves with and without a cache are bit-identical. nil (the default)
	// builds the space per solve.
	Cache *PatternCache
	// Trace enables per-iteration progress output (debugging).
	Trace bool
	// TraceOut is the destination of Trace output; nil selects os.Stdout.
	// Parallel sweeps that trace should hand every solve its own writer so
	// the per-iteration lines of concurrent solves do not interleave.
	TraceOut io.Writer
}

// Factorization selects the KKT factorization backend; see
// Options.Factorization.
type Factorization int

const (
	// FactorAuto picks the default backend, the simplicial factorization,
	// at every KKT dimension (see ResolveFactorization).
	FactorAuto Factorization = iota
	// FactorSparse forces the sparse simplicial factorization.
	FactorSparse
	// FactorSupernodal forces the blocked supernodal factorization.
	FactorSupernodal
)

// String implements fmt.Stringer.
func (f Factorization) String() string {
	switch f {
	case FactorAuto:
		return "auto"
	case FactorSparse:
		return "sparse"
	case FactorSupernodal:
		return "supernodal"
	default:
		return fmt.Sprintf("Factorization(%d)", int(f))
	}
}

// ResolveFactorization maps a Factorization choice to the concrete backend
// the solver will run for a KKT system of the given dimension (the
// normal-equations dimension n, the number of variables). Explicit
// choices resolve to themselves; FactorAuto resolves to FactorSparse at
// every dimension: on every KKT system of the paper's instances and the
// benchmark's, the simplicial kernel is the faster one (EXPERIMENTS.md
// §P16).
func ResolveFactorization(f Factorization, dim int) Factorization {
	if f != FactorAuto {
		return f
	}
	return FactorSparse
}

func (o Options) withDefaults() Options {
	if o.MaxIter == 0 {
		o.MaxIter = 100
	}
	if o.FeasTol == 0 {
		o.FeasTol = 1e-7
	}
	if o.AbsTol == 0 {
		o.AbsTol = 1e-9
	}
	if o.RelTol == 0 {
		o.RelTol = 1e-9
	}
	if o.StepFrac == 0 {
		o.StepFrac = 0.99
	}
	if o.KKTReg == 0 {
		o.KKTReg = 1e-13
	}
	if o.Trace && o.TraceOut == nil {
		o.TraceOut = os.Stdout
	}
	return o
}
