package socp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cone"
	"repro/internal/linalg"
)

// refResidual is kktFactor.residual as the separate passes it replaced:
// r1 = bx − Gᵀz, and r2 = bz − G·x followed by + W²z, with W² applied as
// two in-place W applications.
func refResidual(f *kktFactor, bx, bz, x, z linalg.Vector) (r1, r2 linalg.Vector) {
	g := f.st.sv.g
	r1 = bx.Clone()
	g.MulVecTAdd(r1, -1, z)
	r2 = bz.Clone()
	gx := linalg.NewVector(len(bz))
	g.MulVec(gx, x)
	for i := range r2 {
		r2[i] += -1 * gx[i] // the removed MulVecAdd(r2, −1, x)
	}
	w2z := z.Clone()
	if f.w != nil {
		f.w.Apply(w2z, w2z)
		f.w.Apply(w2z, w2z)
	}
	linalg.Add(r2, r2, w2z)
	return r1, r2
}

func sameVecBits(got, want linalg.Vector) bool {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return len(got) == len(want)
}

// TestKKTResidualMatchesReference requires the fused KKT residual to
// reproduce the separate passes bit for bit, both when it forms G·x itself
// and when it reads the G·dx that solveOnce left in ws.t, which must be
// exactly G·dx. It also checks solveOnce's dz = W⁻²(G·dx − bz) against the
// product, subtraction and two W⁻¹ applications it replaced. Both pipeline
// shapes run at W = I and at an interior NT scaling.
func TestKKTResidualMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 10; trial++ {
		for _, tc := range allocCases(rng) {
			for _, scaled := range []bool{false, true} {
				p := withCSR(tc.p)
				st := unscaledState(p)
				var w *cone.Scaling
				if scaled {
					w = interiorScaling(t, rng, p.Dims)
				}
				f, err := st.factor(w)
				if err != nil {
					t.Fatal(err)
				}
				bx, bz := linalg.NewVector(st.n), linalg.NewVector(st.m)
				for _, v := range []linalg.Vector{bx, bz} {
					for i := range v {
						v[i] = rng.NormFloat64()
					}
				}
				dx, dz := linalg.NewVector(st.n), linalg.NewVector(st.m)
				f.solveOnce(bx, bz, dx, dz)
				ws := st.ws

				gdx := linalg.NewVector(st.m)
				st.sv.g.MulVec(gdx, dx)
				if !sameVecBits(ws.t, gdx) {
					t.Fatalf("trial %d %s scaled=%v: ws.t after solveOnce is not G·dx", trial, tc.name, scaled)
				}
				wantDz := gdx.Clone()
				wantDz.AddScaled(-1, bz)
				if w != nil {
					w.ApplyInv(wantDz, wantDz)
					w.ApplyInv(wantDz, wantDz)
				}
				if !sameVecBits(dz, wantDz) {
					t.Fatalf("trial %d %s scaled=%v: dz = %v, reference %v", trial, tc.name, scaled, dz, wantDz)
				}

				r1, r2 := refResidual(f, bx, bz, dx, dz)
				for _, gx := range []linalg.Vector{ws.t, nil} {
					ws.r1.Zero()
					ws.r2.Zero()
					f.residual(bx, bz, dx, dz, gx)
					if !sameVecBits(ws.r1, r1) || !sameVecBits(ws.r2, r2) {
						t.Fatalf("trial %d %s scaled=%v reused G·dx=%v: residual (%v, %v), reference (%v, %v)",
							trial, tc.name, scaled, gx != nil, ws.r1, ws.r2, r1, r2)
					}
				}
			}
		}
	}
}
