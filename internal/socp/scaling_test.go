package socp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cone"
	"repro/internal/linalg"
)

// TestEquilibrateSolutionEquivalence: solving a badly scaled problem must
// give the same optimal x and objective as solving a well-scaled equivalent,
// and the returned duals must certify optimality in the ORIGINAL problem.
func TestEquilibrateSolutionEquivalence(t *testing.T) {
	// min x s.t. x ≥ 3, scaled by huge factors:
	// 1e6·x ≥ 3e6 and a loose capacity row 1e-3·x ≤ 1e9.
	g := &linalg.Matrix{Rows: 2, Cols: 1, Data: []float64{-1e6, 1e-3}}
	h := linalg.Vector{-3e6, 1e9}
	p := &Problem{
		C:    linalg.Vector{5e4},
		G:    g,
		H:    h,
		Dims: cone.Dims{NonNeg: 2},
	}
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status %v", sol.Status)
	}
	if math.Abs(sol.X[0]-3) > 1e-6 {
		t.Fatalf("x = %v, want 3", sol.X[0])
	}
	if math.Abs(sol.PrimalObj-1.5e5) > 1e-1 {
		t.Fatalf("obj = %v, want 1.5e5", sol.PrimalObj)
	}
	// The duals must satisfy the ORIGINAL stationarity Gᵀz + c = 0.
	res := p.C.Clone()
	p.G.MulVecTAdd(res, 1, sol.Z)
	if linalg.Norm2(res) > 1e-3*linalg.Norm2(p.C) {
		t.Fatalf("unscaled duals do not certify optimality: residual %v", linalg.Norm2(res))
	}
	// Slacks must satisfy the ORIGINAL Gx + s = h.
	gx := linalg.NewVector(2)
	p.G.MulVec(gx, sol.X)
	linalg.Add(gx, gx, sol.S)
	gx.AddScaled(-1, p.H)
	if linalg.Norm2(gx) > 1e-3*linalg.Norm2(p.H) {
		t.Fatalf("unscaled slacks inconsistent: %v", linalg.Norm2(gx))
	}
}

// TestEquilibrateWithEqualities: the same, with a scaled equality row. The
// solver takes inequalities only, so the equality is posed as the pair of
// rows a ≥ 0 and −a ≥ 0, whose slacks have no common interior.
func TestEquilibrateWithEqualities(t *testing.T) {
	// min x+y s.t. 1e5·(x+y) = 2e5, x,y ≥ 0 → obj = 2.
	b := NewBuilder()
	x := b.AddVar()
	y := b.AddVar()
	b.SetObjective(x, 1)
	b.SetObjective(y, 1)
	b.AddNonNeg(Expr(0).Plus(1, x))
	b.AddNonNeg(Expr(0).Plus(1, y))
	row := Expr(-2e5).Plus(1e5, x).Plus(1e5, y)
	b.AddNonNeg(row)
	b.AddLE(row, Expr(0))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal || math.Abs(sol.PrimalObj-2) > 1e-6 {
		t.Fatalf("status %v obj %v", sol.Status, sol.PrimalObj)
	}
}

// TestRedundantConstraints: duplicated and implied rows must not break the
// solve (they make the dual degenerate).
func TestRedundantConstraints(t *testing.T) {
	b := NewBuilder()
	x := b.AddVar()
	b.SetObjective(x, 1)
	for i := 0; i < 5; i++ {
		b.AddNonNeg(Expr(-3).Plus(1, x)) // x ≥ 3, five times
	}
	b.AddNonNeg(Expr(-1).Plus(1, x)) // implied by x ≥ 3
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal || math.Abs(sol.X[0]-3) > 1e-5 {
		t.Fatalf("status %v x %v", sol.Status, sol.X)
	}
}

// TestConstantRows: rows with no variables at all (h ≥ 0 holds or fails).
func TestConstantRows(t *testing.T) {
	b := NewBuilder()
	x := b.AddVar()
	b.SetObjective(x, 1)
	b.AddNonNeg(Expr(-1).Plus(1, x))
	b.AddNonNeg(Expr(5)) // trivially true constant row
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal || math.Abs(sol.X[0]-1) > 1e-5 {
		t.Fatalf("status %v x %v", sol.Status, sol.X)
	}
}

// TestVariableFixedByInequalities: x ≤ 2 and x ≥ 2 pin the variable.
func TestVariableFixedByInequalities(t *testing.T) {
	b := NewBuilder()
	x := b.AddVar()
	y := b.AddVar()
	b.SetObjective(y, 1)
	b.AddNonNeg(Expr(-2).Plus(1, x))
	b.AddNonNeg(Expr(2).Plus(-1, x))
	b.AddNonNeg(Expr(0).Plus(1, y).Plus(-1, x)) // y ≥ x
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal || math.Abs(sol.X[x]-2) > 1e-5 || math.Abs(sol.X[y]-2) > 1e-5 {
		t.Fatalf("status %v x %v", sol.Status, sol.X)
	}
}

// TestRandomScaledLPsRecoverOptimum: random LPs with wild row/cost scalings
// still solve to the same optimum as their well-scaled twins.
func TestRandomScaledLPsRecoverOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(4)
		m := n + 2 + rng.Intn(5)
		g := linalg.NewMatrix(m, n)
		for i := range g.Data {
			g.Data[i] = rng.NormFloat64()
		}
		x0 := linalg.NewVector(n)
		for i := range x0 {
			x0[i] = rng.Float64() * 2
		}
		h := linalg.NewVector(m)
		g.MulVec(h, x0)
		for i := range h {
			h[i] += 0.2 + rng.Float64()
		}
		z0 := linalg.NewVector(m)
		for i := range z0 {
			z0[i] = 0.1 + rng.Float64()
		}
		c := linalg.NewVector(n)
		g.MulVecTAdd(c, 1, z0)
		c.Scale(-1)

		base := &Problem{C: c.Clone(), G: g.Clone(), H: h.Clone(), Dims: cone.Dims{NonNeg: m}}
		solBase, err := Solve(base, Options{})
		if err != nil || solBase.Status != StatusOptimal {
			t.Fatalf("trial %d base: %v %v", trial, solBase.Status, err)
		}

		// Wildly rescale rows and cost.
		g2 := g.Clone()
		h2 := h.Clone()
		for i := 0; i < m; i++ {
			f := math.Pow(10, float64(rng.Intn(13)-6))
			for j := 0; j < n; j++ {
				g2.Set(i, j, g2.At(i, j)*f)
			}
			h2[i] *= f
		}
		c2 := c.Clone()
		cf := math.Pow(10, float64(rng.Intn(9)-4))
		c2.Scale(cf)
		scaled := &Problem{C: c2, G: g2, H: h2, Dims: cone.Dims{NonNeg: m}}
		solScaled, err := Solve(scaled, Options{})
		if err != nil || solScaled.Status != StatusOptimal {
			t.Fatalf("trial %d scaled: %v %v", trial, solScaled.Status, err)
		}
		want := solBase.PrimalObj * cf
		if math.Abs(solScaled.PrimalObj-want) > 1e-4*math.Max(1, math.Abs(want)) {
			t.Fatalf("trial %d: scaled obj %v, want %v", trial, solScaled.PrimalObj, want)
		}
	}
}
