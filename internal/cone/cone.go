// Package cone implements the symmetric-cone calculus needed by a
// primal-dual interior-point method over the cone
//
//	K = R₊ˡ × Q^{q₁} × … × Q^{qN},
//
// the Cartesian product of a nonnegative orthant and second-order (Lorentz)
// cones Q^q = { (x₀, x₁) ∈ R × R^{q-1} : x₀ ≥ ‖x₁‖₂ }.
//
// It provides the Euclidean-Jordan-algebra operations (product, division,
// identity), interior tests, exact step-to-boundary computations, and the
// Nesterov-Todd scaling W with W z = W⁻ᵀ s used to symmetrize the KKT system.
package cone

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// Dims describes the cone K as an ordered product: first NonNeg scalar
// coordinates forming the nonnegative orthant, then one block of size SOC[i]
// for each second-order cone. Every SOC size must be at least 2.
type Dims struct {
	NonNeg int
	SOC    []int
}

// Validate reports whether the dimensions are well formed.
func (d Dims) Validate() error {
	if d.NonNeg < 0 {
		return fmt.Errorf("cone: negative orthant size %d", d.NonNeg)
	}
	for i, q := range d.SOC {
		if q < 2 {
			return fmt.Errorf("cone: SOC block %d has size %d (< 2)", i, q)
		}
	}
	return nil
}

// Dim returns the total vector length of a point in K.
func (d Dims) Dim() int {
	n := d.NonNeg
	for _, q := range d.SOC {
		n += q
	}
	return n
}

// Degree returns the barrier degree ν of K under the normalization in which
// the central path satisfies s∘z = µ·e: each orthant coordinate contributes
// 1 and each second-order cone block contributes 1.
func (d Dims) Degree() int { return d.NonNeg + len(d.SOC) }

// Identity writes the cone identity element e into dst: ones in the orthant,
// (1, 0, …, 0) in each SOC block.
func (d Dims) Identity(dst linalg.Vector) {
	d.checkLen(dst)
	dst.Zero()
	for i := 0; i < d.NonNeg; i++ {
		dst[i] = 1
	}
	off := d.NonNeg
	for _, q := range d.SOC {
		dst[off] = 1
		off += q
	}
}

func (d Dims) checkLen(v linalg.Vector) {
	if len(v) != d.Dim() {
		panic(fmt.Sprintf("cone: vector length %d does not match cone dimension %d", len(v), d.Dim()))
	}
}

// socResidual returns x₀ − ‖x₁‖ for the SOC block x; positive means strictly
// interior.
func socResidual(x linalg.Vector) float64 {
	return x[0] - linalg.Norm2(x[1:])
}

// Interior reports whether x is strictly in the interior of K.
func (d Dims) Interior(x linalg.Vector) bool {
	d.checkLen(x)
	for i := 0; i < d.NonNeg; i++ {
		if x[i] <= 0 {
			return false
		}
	}
	off := d.NonNeg
	for _, q := range d.SOC {
		if socResidual(x[off:off+q]) <= 0 {
			return false
		}
		off += q
	}
	return true
}

// InteriorMargin returns the smallest slack of x over the blocks of K:
// min xᵢ over the orthant and x₀ − ‖x₁‖ for each SOC block. A positive
// margin means strictly interior; callers use −margin as the shift along
// the identity e that pushes x inside. A zero-dimensional cone has margin 0.
func (d Dims) InteriorMargin(x linalg.Vector) float64 {
	d.checkLen(x)
	margin := math.Inf(1)
	for _, xi := range x[:d.NonNeg] {
		if xi < margin {
			margin = xi
		}
	}
	off := d.NonNeg
	for _, q := range d.SOC {
		if r := socResidual(x[off : off+q]); r < margin {
			margin = r
		}
		off += q
	}
	if math.IsInf(margin, 1) { // zero-dimensional cone
		return 0
	}
	return margin
}

// Product writes the Jordan product x∘y into dst. For the orthant this is the
// elementwise product; for a SOC block, x∘y = (xᵀy, x₀y₁ + y₀x₁).
func (d Dims) Product(dst, x, y linalg.Vector) {
	d.checkLen(dst)
	d.checkLen(x)
	d.checkLen(y)
	for i := 0; i < d.NonNeg; i++ {
		dst[i] = x[i] * y[i]
	}
	off := d.NonNeg
	for _, q := range d.SOC {
		xb, yb, db := x[off:off+q], y[off:off+q], dst[off:off+q]
		dot := linalg.Dot(xb, yb)
		x0, y0 := xb[0], yb[0]
		// Write the tail first so aliasing with dst==x or dst==y is safe
		// for everything except the head, which we saved.
		for i := 1; i < q; i++ {
			db[i] = x0*yb[i] + y0*xb[i]
		}
		db[0] = dot
		off += q
	}
}

// Div writes into dst the solution u of λ∘u = b (Jordan division). λ must be
// strictly interior; otherwise the result contains Inf/NaN.
func (d Dims) Div(dst, lambda, b linalg.Vector) {
	d.checkLen(dst)
	d.checkLen(lambda)
	d.checkLen(b)
	for i := 0; i < d.NonNeg; i++ {
		dst[i] = b[i] / lambda[i]
	}
	off := d.NonNeg
	for _, q := range d.SOC {
		lb, bb, db := lambda[off:off+q], b[off:off+q], dst[off:off+q]
		l0 := lb[0]
		det := l0*l0 - sq(linalg.Norm2(lb[1:]))
		// u₀ = (λ₀b₀ − λ₁ᵀb₁)/det(λ); u₁ = (b₁ − u₀λ₁)/λ₀.
		dot1 := linalg.Dot(lb[1:], bb[1:])
		u0 := (l0*bb[0] - dot1) / det
		for i := 1; i < q; i++ {
			db[i] = (bb[i] - u0*lb[i]) / l0
		}
		db[0] = u0
		off += q
	}
}

func sq(x float64) float64 { return x * x }

// StepToBoundary returns the largest t ≥ 0 such that x + α·dx ∈ K for all
// α ∈ [0, t]. x must be strictly interior. Returns +Inf when the whole ray
// stays inside K.
func (d Dims) StepToBoundary(x, dx linalg.Vector) float64 {
	d.checkLen(x)
	d.checkLen(dx)
	t := math.Inf(1)
	xl := x[:d.NonNeg]
	for i, di := range dx[:len(xl)] {
		if di < 0 {
			if cand := -xl[i] / di; cand < t {
				t = cand
			}
		}
	}
	off := d.NonNeg
	for _, q := range d.SOC {
		if cand := socStep(x[off:off+q], dx[off:off+q]); cand < t {
			t = cand
		}
		off += q
	}
	return t
}

// socStep returns the exit step for a single SOC block. The function
// f(α) = (x₀+αd₀) − ‖x₁+αd₁‖ is concave with f(0) > 0, so the positive root,
// when it exists, is unique. If the asymptotic slope d₀ − ‖d₁‖ is
// nonnegative, f never returns to zero and the step is unbounded.
func socStep(x, dx linalg.Vector) float64 {
	dres := socResidual(dx)
	if dres >= 0 {
		return math.Inf(1)
	}
	// Solve det(x + α dx) = 0:  a α² + 2b α + c = 0 with
	// a = det(dx) (< 0 here), b = xᵀJ dx, c = det(x) (> 0).
	x0, d0 := x[0], dx[0]
	a := d0*d0 - sq(linalg.Norm2(dx[1:]))
	b := x0*d0 - linalg.Dot(x[1:], dx[1:])
	c := x0*x0 - sq(linalg.Norm2(x[1:]))
	if c <= 0 {
		return 0 // x already on or outside the boundary
	}
	if a == 0 {
		if b >= 0 {
			return math.Inf(1)
		}
		return -c / (2 * b)
	}
	disc := b*b - a*c
	if disc < 0 {
		disc = 0
	}
	sqrtDisc := math.Sqrt(disc)
	// Stable quadratic roots.
	var q float64
	if b >= 0 {
		q = -(b + sqrtDisc)
	} else {
		q = -(b - sqrtDisc)
	}
	r1, r2 := q/a, c/q
	if r1 > r2 {
		r1, r2 = r2, r1
	}
	// The exit point is the smallest positive root at which the head stays
	// nonnegative.
	const eps = 1e-14
	for _, r := range []float64{r1, r2} {
		if r > 0 && x0+r*d0 >= -eps*(math.Abs(x0)+1) {
			return r
		}
	}
	// Numerical corner case: fall back to bisection on the concave f.
	return socStepBisect(x, dx)
}

func socStepBisect(x, dx linalg.Vector) float64 {
	f := func(alpha float64) float64 {
		head := x[0] + alpha*dx[0]
		var ssq float64
		for i := 1; i < len(x); i++ {
			v := x[i] + alpha*dx[i]
			ssq += v * v
		}
		return head - math.Sqrt(ssq)
	}
	lo, hi := 0.0, 1.0
	for f(hi) > 0 {
		hi *= 2
		if hi > 1e18 {
			return math.Inf(1)
		}
	}
	for iter := 0; iter < 200 && hi-lo > 1e-15*hi; iter++ {
		mid := (lo + hi) / 2
		if f(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
