package socp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cone"
	"repro/internal/linalg"
)

// longRowProblem returns a feasible random problem with n variables, l
// orthant rows, nsoc SOC blocks of size 3, and orthant row 0 touching every
// variable — longer than maxNormalEqRow when n > 8, like a processor (9) or
// memory (10) coupling row.
func longRowProblem(rng *rand.Rand, n, l, nsoc int) *Problem {
	dims := cone.Dims{NonNeg: l}
	for b := 0; b < nsoc; b++ {
		dims.SOC = append(dims.SOC, 3)
	}
	m := dims.Dim()
	g := linalg.NewMatrix(m, n)
	for j := 0; j < n; j++ {
		g.Set(0, j, 1+rng.Float64())
		g.Set(1+j%(m-1), j, 1+rng.Float64()) // full column rank
		g.Set(1+rng.Intn(m-1), j, rng.NormFloat64())
	}
	interior := func() linalg.Vector {
		v := linalg.NewVector(m)
		for i := 0; i < l; i++ {
			v[i] = 0.1 + rng.Float64()
		}
		for off := l; off < m; off += 3 {
			v[off+1], v[off+2] = rng.NormFloat64(), rng.NormFloat64()
			v[off] = math.Hypot(v[off+1], v[off+2]) + 0.1 + rng.Float64()
		}
		return v
	}
	x0 := linalg.NewVector(n)
	for i := range x0 {
		x0[i] = rng.NormFloat64()
	}
	h := linalg.NewVector(m)
	g.MulVec(h, x0)
	linalg.Add(h, h, interior())
	c := linalg.NewVector(n)
	g.MulVecTAdd(c, 1, interior())
	c.Scale(-1)
	return &Problem{C: c, G: g, H: h, Dims: dims}
}

// TestSplitKKTSolvesNormalEquations: with a long orthant row split off H,
// the factored system [[H_s+reg·I, Bᵀ], [B, −I]] solved for [r; 0] must
// give the x of the full normal equations GᵀW⁻²G x = r (solved densely), at
// the NT scalings of real iterates.
func TestSplitKKTSolvesNormalEquations(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	p := longRowProblem(rng, 12, 12, 2)
	n := p.NumVars()
	sv := testView(withCSR(p))
	if len(sv.split) != 1 || sv.split[0] != 0 {
		t.Fatalf("split rows %v, want [0]", sv.split)
	}
	ne := newNEFactor(sv, nil, FactorSparse, 1)
	if ne.kkt == nil || ne.nd != 1 || ne.kkt.Rows != n+1 {
		t.Fatalf("KKT pipeline with %d split rows, want 1", ne.nd)
	}
	if ne.ata.Result.NNZ() == n*n {
		t.Fatal("H is dense; the long row was assembled into it")
	}
	rhs := linalg.NewVector(n + 1)
	for i := 0; i < n; i++ {
		rhs[i] = rng.NormFloat64()
	}
	for k, w := range realScalings(t, p) {
		sv.fillScaled(w)
		ne.ata.Compute(sv.gs)
		const reg = 1e-13
		ne.fillKKT(sv.gs, reg)
		if err := ne.chol.FactorizeQuasiDef(ne.kkt, reg); err != nil {
			t.Fatal(err)
		}
		got := linalg.NewVector(n + 1)
		ne.chol.SolveRefined(ne.kkt, rhs, got)

		// Dense oracle: the unsplit normal equations.
		gd := p.G.Clone()
		if w != nil {
			scaleRows(w, p.Dims, gd)
		}
		hd := linalg.NewMatrix(n, n)
		ataInto(hd, gd)
		want := linalg.NewVector(n)
		ldlt := newDenseLDL(n)
		if err := ldlt.Factorize(hd, 1e-14); err != nil {
			t.Fatal(err)
		}
		ldlt.SolveRefined(hd, rhs[:n], want)
		scale := 1 + linalg.NormInf(want)
		for i := range want {
			if d := math.Abs(got[i] - want[i]); d > 1e-7*scale {
				t.Fatalf("scaling %d: entry %d = %v, normal equations %v", k, i, got[i], want[i])
			}
		}
	}
}

// TestSplitSolveMatchesOracles: a full solve of a problem with a long
// orthant row must reach the optimum of both the unsplit normal-equations
// path and the dense-factor oracle.
func TestSplitSolveMatchesOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 6; trial++ {
		p := longRowProblem(rng, 10+trial, 12, 2)
		split, err := Solve(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		restore := UseUnsplitNormalEq()
		unsplit, err := Solve(p, Options{})
		restore()
		if err != nil {
			t.Fatal(err)
		}
		restore = UseDenseFactorOracle()
		dense, err := Solve(p, Options{})
		restore()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []*Solution{split, unsplit, dense} {
			if s.Status != StatusOptimal {
				t.Fatalf("trial %d: status split=%v unsplit=%v dense=%v", trial, split.Status, unsplit.Status, dense.Status)
			}
			scale := math.Max(1, math.Abs(s.PrimalObj))
			if d := math.Abs(split.PrimalObj - s.PrimalObj); d > 1e-7*scale {
				t.Fatalf("trial %d: split objective %v, oracle %v", trial, split.PrimalObj, s.PrimalObj)
			}
		}
	}
}

// TestSplitRegScaleMatchesFullH: the static regularization scales with the
// largest entry of the full H = GᵀW⁻²G, split rows included, as it did
// before the split; hMax must reproduce it from H_s and B alone.
func TestSplitRegScaleMatchesFullH(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	p := longRowProblem(rng, 12, 12, 2)
	sv := testView(withCSR(p))
	ne := newNEFactor(sv, nil, FactorSparse, 1)
	for k, w := range realScalings(t, p) {
		sv.fillScaled(w)
		ne.ata.Compute(sv.gs)
		gd := p.G.Clone()
		if w != nil {
			scaleRows(w, p.Dims, gd)
		}
		hd := linalg.NewMatrix(p.NumVars(), p.NumVars())
		ataInto(hd, gd)
		want := hd.NormInf()
		if got := ne.hMax(sv.gs); math.Abs(got-want) > 1e-12*want {
			t.Fatalf("scaling %d: hMax %v, largest entry of H %v", k, got, want)
		}
		if hs := ne.ata.Result.NormInf(); hs >= want {
			t.Fatalf("scaling %d: H_s alone reaches %v ≥ %v; the split row adds nothing to test", k, hs, want)
		}
	}
}

// TestQuasiDefRefinesAgainstUnregularized: after factorSparse on a problem
// with a split row, the KKT matrix SolveRefined refines against is the
// unregularized one, bit for bit what fillKKT writes at reg 0, and the
// refined Newton solve satisfies the unregularized KKT system.
func TestQuasiDefRefinesAgainstUnregularized(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	p := withCSR(longRowProblem(rng, 14, 12, 2))
	for k, w := range realScalings(t, p) {
		st := unscaledState(p)
		f, err := st.factor(w)
		if err != nil {
			t.Fatal(err)
		}
		ne := st.ne
		if ne.kkt == nil || ne.nd != 1 || f.hs != ne.kkt {
			t.Fatal("split-row problem does not factor the KKT matrix")
		}
		got := append([]float64(nil), ne.kkt.Val...)
		ne.fillKKT(st.sv.gs, 0)
		for i, v := range ne.kkt.Val {
			if math.Float64bits(got[i]) != math.Float64bits(v) && !(got[i] == 0 && v == 0) {
				t.Fatalf("scaling %d: refinement matrix entry %d = %v, unregularized %v", k, i, got[i], v)
			}
		}

		bx, bz := linalg.NewVector(st.n), linalg.NewVector(st.m)
		for _, v := range []linalg.Vector{bx, bz} {
			for i := range v {
				v[i] = rng.NormFloat64()
			}
		}
		dx, dz := f.solve(bx, bz)
		f.residual(bx, bz, dx, dz, nil)
		ws := st.ws
		res := math.Max(linalg.NormInf(ws.r1), linalg.NormInf(ws.r2))
		scale := 1 + math.Max(linalg.NormInf(dx), linalg.NormInf(dz))
		if res > 1e-9*scale {
			t.Fatalf("scaling %d: KKT residual %v of the refined solve (solution scale %v)", k, res, scale)
		}
	}
}
