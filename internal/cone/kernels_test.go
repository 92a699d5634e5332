package cone

import (
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// refApplyP is applyP as a plain loop, without the 3-element fast path.
func refApplyP(v linalg.Vector, detV float64, dst, u linalg.Vector) {
	dot := linalg.Dot(v, u)
	dst[0] = 2*v[0]*dot - detV*u[0]
	for i := 1; i < len(u); i++ {
		dst[i] = 2*v[i]*dot + detV*u[i]
	}
}

// refApply and refApplyInv are Apply and ApplyInv on refApplyP; applied
// twice in place they are the W² and W⁻² the IPM formed before ApplySq and
// ApplyInvSq.
func refApply(w *Scaling, dst, x linalg.Vector) {
	for i := 0; i < w.dims.NonNeg; i++ {
		dst[i] = w.d[i] * x[i]
	}
	off := w.dims.NonNeg
	for bi, q := range w.dims.SOC {
		blk := &w.blocks[bi]
		refApplyP(blk.v, blk.detV, dst[off:off+q], x[off:off+q])
		off += q
	}
}

func refApplyInv(w *Scaling, dst, x linalg.Vector) {
	for i := 0; i < w.dims.NonNeg; i++ {
		dst[i] = x[i] / w.d[i]
	}
	off := w.dims.NonNeg
	for bi, q := range w.dims.SOC {
		blk := &w.blocks[bi]
		refApplyP(blk.vinv, 1/blk.detV, dst[off:off+q], x[off:off+q])
		off += q
	}
}

// TestScalingKernelsMatchReference requires Apply, ApplyInv, ApplySq and
// ApplyInvSq to reproduce the plain-loop reference bit for bit, with dst
// distinct from x and with dst = x, on SOC blocks of size 3 (applyP's fast
// path) and of other sizes.
func TestScalingKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, d := range []Dims{
		{NonNeg: 4},
		{SOC: []int{3}},
		{NonNeg: 3, SOC: []int{3, 3, 3}},
		{NonNeg: 2, SOC: []int{2, 4, 3, 5}},
		{SOC: []int{6, 2}},
	} {
		for trial := 0; trial < 20; trial++ {
			w, err := NewScaling(d, randInterior(rng, d), randInterior(rng, d))
			if err != nil {
				t.Fatal(err)
			}
			x := linalg.NewVector(d.Dim())
			for i := range x {
				if rng.Intn(6) != 0 {
					x[i] = rng.NormFloat64()
				}
			}
			for _, k := range []struct {
				name string
				got  func(dst, x linalg.Vector)
				ref  func(dst linalg.Vector) // in place
			}{
				{"Apply", w.Apply, func(v linalg.Vector) { refApply(w, v, v) }},
				{"ApplyInv", w.ApplyInv, func(v linalg.Vector) { refApplyInv(w, v, v) }},
				{"ApplySq", w.ApplySq, func(v linalg.Vector) { refApply(w, v, v); refApply(w, v, v) }},
				{"ApplyInvSq", w.ApplyInvSq, func(v linalg.Vector) { refApplyInv(w, v, v); refApplyInv(w, v, v) }},
			} {
				want := x.Clone()
				k.ref(want)
				got := linalg.NewVector(len(x))
				k.got(got, x)
				if !sameBits(got, want) {
					t.Fatalf("%+v trial %d: %s = %v, reference %v", d, trial, k.name, got, want)
				}
				got.CopyFrom(x)
				k.got(got, got)
				if !sameBits(got, want) {
					t.Fatalf("%+v trial %d: in-place %s = %v, reference %v", d, trial, k.name, got, want)
				}
			}
		}
	}
}
