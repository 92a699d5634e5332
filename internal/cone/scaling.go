package cone

import (
	"errors"
	"math"
	"slices"

	"repro/internal/linalg"
)

// ErrNotInterior is returned when a scaling is requested for points that are
// not strictly inside the cone.
var ErrNotInterior = errors.New("cone: point is not strictly interior")

// Scaling is the Nesterov-Todd scaling for a primal-dual pair (s, z) of
// strictly interior points: a symmetric positive-definite linear map W with
//
//	W z = W⁻¹ s  (=: λ, the scaled point).
//
// For the orthant, W is diagonal with entries √(sᵢ/zᵢ). For a second-order
// cone block, W = P(v) is the quadratic representation of the Jordan square
// root v = w^{1/2} of the scaling point w (the unique interior point with
// P(w) z = s):
//
//	P(v) u = 2 v (vᵀu) − det(v)·J u,   J u = (u₀, −u₁).
//
// A Scaling owns all of its storage, its copy of the cone shape included.
// An interior-point method keeps one and calls Update at every iteration,
// which rewrites d, λ and the per-block v, v⁻¹ in place; Apply, ApplyInv
// and their squares need no scratch at all. A Scaling may outlive a solve:
// Update reads nothing the previous pair left, so a pooled Scaling reused
// for the next solve of the same cone computes what a fresh one does.
type Scaling struct {
	dims Dims
	// Orthant diagonal: d[i] = sqrt(s_i / z_i), indexed from 0..NonNeg-1.
	d linalg.Vector
	// One entry per SOC block.
	blocks []socScaling
	lambda linalg.Vector // λ = W z = W⁻¹ s
}

type socScaling struct {
	v    linalg.Vector // Jordan square root of the scaling point w
	detV float64       // det(v) = √det(w) = √(‖s‖_J / ‖z‖_J)
	vinv linalg.Vector // v⁻¹ = J v / det(v), so P(v)⁻¹ = P(v⁻¹)
}

// NewScaling computes the NT scaling for the pair (s, z). Both points must be
// strictly interior to K.
func NewScaling(dims Dims, s, z linalg.Vector) (*Scaling, error) {
	w := &Scaling{}
	if err := w.Update(dims, s, z); err != nil {
		return nil, err
	}
	return w, nil
}

// Update recomputes the scaling in place for the pair (s, z), which must be
// strictly interior to K. It allocates only when dims differs in shape from
// the previous call's. On error the scaling is unusable until the next
// successful Update.
func (w *Scaling) Update(dims Dims, s, z linalg.Vector) error {
	dims.checkLen(s)
	dims.checkLen(z)
	if !dims.Interior(s) || !dims.Interior(z) {
		return ErrNotInterior
	}
	if !w.shaped(dims) {
		w.reshape(dims)
	}
	for i := 0; i < dims.NonNeg; i++ {
		w.d[i] = math.Sqrt(s[i] / z[i])
		w.lambda[i] = math.Sqrt(s[i] * z[i])
	}
	off := dims.NonNeg
	for bi, q := range dims.SOC {
		sb, zb := s[off:off+q], z[off:off+q]
		blk := &w.blocks[bi]
		if err := blk.update(sb, zb); err != nil {
			return err
		}
		// λ block = W z.
		applyP(blk.v, blk.detV, w.lambda[off:off+q], zb)
		off += q
	}
	return nil
}

// shaped reports whether w's storage fits dims block for block. The zero
// Scaling fits the empty cone.
func (w *Scaling) shaped(dims Dims) bool {
	if w.dims.NonNeg != dims.NonNeg || len(w.dims.SOC) != len(dims.SOC) {
		return false
	}
	for i, q := range dims.SOC {
		if w.dims.SOC[i] != q {
			return false
		}
	}
	return true
}

// reshape allocates w's storage for dims and keeps a copy of its shape, so
// a caller that reuses or rewrites its Dims cannot change w's.
func (w *Scaling) reshape(dims Dims) {
	w.dims = Dims{NonNeg: dims.NonNeg, SOC: slices.Clone(dims.SOC)}
	nsoc := dims.Dim() - dims.NonNeg
	w.d = linalg.NewVector(dims.NonNeg)
	w.lambda = linalg.NewVector(dims.Dim())
	vbuf, vinvbuf := linalg.NewVector(nsoc), linalg.NewVector(nsoc)
	w.blocks = make([]socScaling, len(dims.SOC))
	off := 0
	for bi, q := range dims.SOC {
		w.blocks[bi].v = vbuf[off : off+q]
		w.blocks[bi].vinv = vinvbuf[off : off+q]
		off += q
	}
}

// update computes the NT scaling for one SOC block into its own storage.
// The normalized points s̄, z̄ and the scaling point w are staged in v and
// vinv before those are overwritten: each stage reads element i only to
// write element i, so the arithmetic is that of separate buffers.
func (blk *socScaling) update(s, z linalg.Vector) error {
	ns := jnorm(s)
	nz := jnorm(z)
	if ns <= 0 || nz <= 0 {
		return ErrNotInterior
	}
	q := len(s)
	// Normalized points and γ = sqrt((1 + s̄ᵀz̄)/2).
	sbar, zbar := blk.v, blk.vinv
	for i := range s {
		sbar[i] = s[i] / ns
		zbar[i] = z[i] / nz
	}
	gamma := math.Sqrt((1 + linalg.Dot(sbar, zbar)) / 2)
	// Scaling point w = √η · w̄ with w̄ = (s̄ + J z̄)/(2γ), η = ns/nz.
	eta := ns / nz
	sqrtEta := math.Sqrt(eta)
	w := blk.v // overwrites s̄
	w[0] = sqrtEta * (sbar[0] + zbar[0]) / (2 * gamma)
	for i := 1; i < q; i++ {
		w[i] = sqrtEta * (sbar[i] - zbar[i]) / (2 * gamma)
	}
	// det(w) = η (since det(w̄) = 1); Jordan square root v of w.
	detW := eta
	v := blk.v // overwrites w
	v0 := math.Sqrt((w[0] + math.Sqrt(detW)) / 2)
	v[0] = v0
	for i := 1; i < q; i++ {
		v[i] = w[i] / (2 * v0)
	}
	detV := math.Sqrt(detW)
	vinv := blk.vinv // overwrites z̄
	vinv[0] = v[0] / detV
	for i := 1; i < q; i++ {
		vinv[i] = -v[i] / detV
	}
	blk.detV = detV
	return nil
}

// jnorm returns √(x₀² − ‖x₁‖²) for an interior SOC point (NaN guarded to 0).
func jnorm(x linalg.Vector) float64 {
	d := x[0]*x[0] - sq(linalg.Norm2(x[1:]))
	if d <= 0 {
		return 0
	}
	return math.Sqrt(d)
}

// applyP writes P(v) u into dst for a SOC block: 2 v (vᵀu) − det(v)·J u.
// dst may be u itself, since element i of the result reads only vᵀu and uᵢ;
// any other overlap is not allowed.
func applyP(v linalg.Vector, detV float64, dst, u linalg.Vector) {
	if len(u) == 3 && len(v) == 3 && len(dst) == 3 {
		// The 3-row cone of every Algorithm 1 block, unrolled with the
		// arithmetic of the loop below: the dot product accumulates from 0
		// in index order, as linalg.Dot does.
		dot := 0.0
		dot += v[0] * u[0]
		dot += v[1] * u[1]
		dot += v[2] * u[2]
		u0, u1, u2 := u[0], u[1], u[2]
		dst[0] = 2*v[0]*dot - detV*u0
		dst[1] = 2*v[1]*dot + detV*u1
		dst[2] = 2*v[2]*dot + detV*u2
		return
	}
	dot := linalg.Dot(v, u)
	dst[0] = 2*v[0]*dot - detV*u[0]
	for i := 1; i < len(u); i++ {
		dst[i] = 2*v[i]*dot + detV*u[i]
	}
}

// Lambda returns the scaled point λ = W z = W⁻¹ s (shared storage; callers
// must not modify it).
func (w *Scaling) Lambda() linalg.Vector { return w.lambda }

// Apply writes W x into dst. dst may be x itself; any other overlap is not
// allowed.
func (w *Scaling) Apply(dst, x linalg.Vector) {
	w.dims.checkLen(dst)
	w.dims.checkLen(x)
	for i := 0; i < w.dims.NonNeg; i++ {
		dst[i] = w.d[i] * x[i]
	}
	off := w.dims.NonNeg
	for bi, q := range w.dims.SOC {
		blk := &w.blocks[bi]
		applyP(blk.v, blk.detV, dst[off:off+q], x[off:off+q])
		off += q
	}
}

// ApplySq writes W² x = W (W x) into dst with the arithmetic of two Apply
// calls, in one pass per block. dst may be x itself; any other overlap is
// not allowed.
func (w *Scaling) ApplySq(dst, x linalg.Vector) {
	w.dims.checkLen(dst)
	w.dims.checkLen(x)
	d := w.d[:w.dims.NonNeg]
	dl, xl := dst[:len(d)], x[:len(d)]
	for i, di := range d {
		dl[i] = di * (di * xl[i])
	}
	off := w.dims.NonNeg
	for bi, q := range w.dims.SOC {
		blk := &w.blocks[bi]
		db := dst[off : off+q]
		applyP(blk.v, blk.detV, db, x[off:off+q])
		applyP(blk.v, blk.detV, db, db)
		off += q
	}
}

// ApplyInv writes W⁻¹ x into dst. dst may be x itself; any other overlap is
// not allowed. Uses P(v)⁻¹ = P(v⁻¹) with v⁻¹ = J v / det(v).
func (w *Scaling) ApplyInv(dst, x linalg.Vector) {
	w.dims.checkLen(dst)
	w.dims.checkLen(x)
	for i := 0; i < w.dims.NonNeg; i++ {
		dst[i] = x[i] / w.d[i]
	}
	off := w.dims.NonNeg
	for bi, q := range w.dims.SOC {
		blk := &w.blocks[bi]
		applyP(blk.vinv, 1/blk.detV, dst[off:off+q], x[off:off+q])
		off += q
	}
}

// ApplyInvSq writes W⁻² x = W⁻¹ (W⁻¹ x) into dst with the arithmetic of
// two ApplyInv calls, in one pass per block. dst may be x itself; any other
// overlap is not allowed.
func (w *Scaling) ApplyInvSq(dst, x linalg.Vector) {
	w.dims.checkLen(dst)
	w.dims.checkLen(x)
	d := w.d[:w.dims.NonNeg]
	dl, xl := dst[:len(d)], x[:len(d)]
	for i, di := range d {
		dl[i] = xl[i] / di / di
	}
	off := w.dims.NonNeg
	for bi, q := range w.dims.SOC {
		blk := &w.blocks[bi]
		db := dst[off : off+q]
		inv := 1 / blk.detV
		applyP(blk.vinv, inv, db, x[off:off+q])
		applyP(blk.vinv, inv, db, db)
		off += q
	}
}

// OrthantInv returns the inverse diagonal entry 1/dᵢ of W for orthant row i
// (0 ≤ i < Dims.NonNeg): the factor that row i of G picks up in W⁻¹G.
func (w *Scaling) OrthantInv(i int) float64 { return 1 / w.d[i] }

// ApplyInvSOC writes P(v⁻¹) x into dst for SOC block bi; both vectors must
// have the block's length and must not alias. Together with OrthantInv this
// lets callers apply W⁻¹ blockwise to matrix columns without materializing
// dense cone-dimension vectors — the building block of the sparse
// normal-equations assembly.
func (w *Scaling) ApplyInvSOC(bi int, dst, x linalg.Vector) {
	blk := w.blocks[bi]
	if len(dst) != len(blk.v) || len(x) != len(blk.v) {
		panic("cone: ApplyInvSOC block length mismatch")
	}
	applyP(blk.vinv, 1/blk.detV, dst, x)
}
