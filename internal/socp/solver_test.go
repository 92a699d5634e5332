package socp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cone"
	"repro/internal/linalg"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func solveOrFail(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatalf("Solve error: %v", err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v (gap %v, pres %v, dres %v)", sol.Status, sol.Gap, sol.PrimalRes, sol.DualRes)
	}
	return sol
}

// min x s.t. x >= 3  → x* = 3.
func TestTrivialLP(t *testing.T) {
	b := NewBuilder()
	x := b.AddVar()
	b.SetObjective(x, 1)
	b.AddNonNeg(Expr(-3).Plus(1, x)) // x − 3 ≥ 0
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sol := solveOrFail(t, p)
	if !almostEqual(sol.X[x], 3, 1e-6) {
		t.Fatalf("x = %v, want 3", sol.X[x])
	}
	if !almostEqual(sol.PrimalObj, 3, 1e-6) {
		t.Fatalf("obj = %v, want 3", sol.PrimalObj)
	}
}

// Classic 2D LP: max x+y s.t. x+2y<=4, 3x+y<=6, x,y>=0.
// Optimum at intersection of the two lines: x=8/5, y=6/5, obj=14/5.
func TestSmallLP(t *testing.T) {
	b := NewBuilder()
	x := b.AddVar()
	y := b.AddVar()
	b.SetObjective(x, -1) // maximize x + y
	b.SetObjective(y, -1)
	b.AddNonNeg(Expr(0).Plus(1, x))
	b.AddNonNeg(Expr(0).Plus(1, y))
	b.AddLE(Expr(0).Plus(1, x).Plus(2, y), Expr(4))
	b.AddLE(Expr(0).Plus(3, x).Plus(1, y), Expr(6))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sol := solveOrFail(t, p)
	if !almostEqual(sol.X[x], 1.6, 1e-6) || !almostEqual(sol.X[y], 1.2, 1e-6) {
		t.Fatalf("(x,y) = (%v,%v), want (1.6,1.2)", sol.X[x], sol.X[y])
	}
	if !almostEqual(sol.PrimalObj, -2.8, 1e-6) {
		t.Fatalf("obj = %v, want -2.8", sol.PrimalObj)
	}
}

// LP with equality constraints: min x+y s.t. x+y+z = 1, z = 0.4, x,y >= 0.
// The solver takes inequalities only, so each equality a = 0 is posed as the
// pair a ≥ 0, a ≤ 0.
func TestLPWithEqualities(t *testing.T) {
	b := NewBuilder()
	x := b.AddVar()
	y := b.AddVar()
	z := b.AddVar()
	b.SetObjective(x, 1)
	b.SetObjective(y, 1)
	b.AddNonNeg(Expr(0).Plus(1, x))
	b.AddNonNeg(Expr(0).Plus(1, y))
	for _, a := range []Affine{
		Expr(-1).Plus(1, x).Plus(1, y).Plus(1, z), // x+y+z−1 = 0
		Expr(-0.4).Plus(1, z),                     // z − 0.4 = 0
	} {
		b.AddNonNeg(a)
		b.AddLE(a, Expr(0))
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sol := solveOrFail(t, p)
	if !almostEqual(sol.PrimalObj, 0.6, 1e-6) {
		t.Fatalf("obj = %v, want 0.6", sol.PrimalObj)
	}
	if !almostEqual(sol.X[z], 0.4, 1e-6) {
		t.Fatalf("z = %v, want 0.4", sol.X[z])
	}
}

// min ‖(x,y) − (3,4)‖ via SOC epigraph: min t s.t. t ≥ ‖(x−3, y−4)‖,
// x ≥ 4 → optimum t = 1 at (4,4).
func TestSOCProjection(t *testing.T) {
	b := NewBuilder()
	tv := b.AddVar()
	x := b.AddVar()
	y := b.AddVar()
	b.SetObjective(tv, 1)
	b.AddSOC(
		Expr(0).Plus(1, tv),
		Expr(-3).Plus(1, x),
		Expr(-4).Plus(1, y),
	)
	b.AddNonNeg(Expr(-4).Plus(1, x)) // x ≥ 4
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sol := solveOrFail(t, p)
	if !almostEqual(sol.X[tv], 1, 1e-5) {
		t.Fatalf("t = %v, want 1", sol.X[tv])
	}
	if !almostEqual(sol.X[x], 4, 1e-5) || !almostEqual(sol.X[y], 4, 1e-4) {
		t.Fatalf("(x,y) = (%v,%v), want (4,4)", sol.X[x], sol.X[y])
	}
}

// Hyperbolic constraint: min u + v s.t. u·v ≥ 1 → u = v = 1, obj = 2
// (AM-GM: u+v ≥ 2√(uv) ≥ 2).
func TestHyperbolicProduct(t *testing.T) {
	b := NewBuilder()
	u := b.AddVar()
	v := b.AddVar()
	b.SetObjective(u, 1)
	b.SetObjective(v, 1)
	b.AddProductGE(u, v, 1)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sol := solveOrFail(t, p)
	if !almostEqual(sol.X[u], 1, 1e-5) || !almostEqual(sol.X[v], 1, 1e-5) {
		t.Fatalf("(u,v) = (%v,%v), want (1,1)", sol.X[u], sol.X[v])
	}
}

// Weighted hyperbolic: min 4u + v s.t. u·v ≥ 1. Lagrange: v/u = 4 → u = 1/2,
// v = 2, obj = 4.
func TestHyperbolicWeighted(t *testing.T) {
	b := NewBuilder()
	u := b.AddVar()
	v := b.AddVar()
	b.SetObjective(u, 4)
	b.SetObjective(v, 1)
	b.AddProductGE(u, v, 1)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sol := solveOrFail(t, p)
	// The optimizer terminates on the duality gap; the x-error of an
	// interior-point method scales as √gap, so allow 1e-4 on the variables
	// while holding the objective to 1e-7.
	if !almostEqual(sol.X[u], 0.5, 1e-4) || !almostEqual(sol.X[v], 2, 1e-4) {
		t.Fatalf("(u,v) = (%v,%v), want (0.5,2)", sol.X[u], sol.X[v])
	}
	if !almostEqual(sol.PrimalObj, 4, 1e-7) {
		t.Fatalf("obj = %v, want 4", sol.PrimalObj)
	}
}

// The paper's core subproblem in isolation: producer-consumer symmetric
// budget minimization at buffer capacity d. Constraints (see DESIGN.md §3):
// 2(R−β) + 2Rλ ≤ µ·d, λβ ≥ 1, Rλ ≤ µ, β ≤ R with R = 40, µ = 10.
// Analytic optimum: β*(d) = max(4, [(80−10d) + √((80−10d)²+640)]/4).
func TestPaperSubproblemAnalytic(t *testing.T) {
	const R, mu = 40.0, 10.0
	want := func(d float64) float64 {
		b := (2*R - mu*d)
		root := (b + math.Sqrt(b*b+16*R)) / 4
		return math.Max(R/mu, root)
	}
	for d := 1; d <= 10; d++ {
		b := NewBuilder()
		beta := b.AddVar()
		lam := b.AddVar()
		b.SetObjective(beta, 1)
		// 2(R−β) + 2Rλ ≤ µd
		b.AddLE(Expr(2*R).Plus(-2, beta).Plus(2*R, lam), Expr(mu*float64(d)))
		// Rλ ≤ µ (self-loop rate constraint)
		b.AddLE(Expr(0).Plus(R, lam), Expr(mu))
		// β ≤ R
		b.AddLE(Expr(0).Plus(1, beta), Expr(R))
		b.AddProductGE(lam, beta, 1)
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		sol := solveOrFail(t, p)
		if w := want(float64(d)); !almostEqual(sol.X[beta], w, 1e-5) {
			t.Fatalf("d=%d: β = %v, want %v", d, sol.X[beta], w)
		}
	}
}

func TestPrimalInfeasible(t *testing.T) {
	// x ≥ 2 and x ≤ 1 simultaneously.
	b := NewBuilder()
	x := b.AddVar()
	b.SetObjective(x, 1)
	b.AddNonNeg(Expr(-2).Plus(1, x))
	b.AddNonNeg(Expr(1).Plus(-1, x))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusPrimalInfeasible {
		t.Fatalf("status = %v, want primal infeasible", sol.Status)
	}
}

func TestDualInfeasibleUnbounded(t *testing.T) {
	// min −x s.t. x ≥ 0: unbounded below → dual infeasible.
	b := NewBuilder()
	x := b.AddVar()
	b.SetObjective(x, -1)
	b.AddNonNeg(Expr(0).Plus(1, x))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusDualInfeasible {
		t.Fatalf("status = %v, want dual infeasible", sol.Status)
	}
}

// Strong duality and feasibility on random bounded LPs with a known interior
// point: generate G, pick x₀ and slack s₀ > 0, set h = Gx₀ + s₀; pick z₀ > 0
// and set c = −Gᵀz₀ so the dual is feasible too.
func TestRandomLPStrongDuality(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(6)
		m := n + 1 + rng.Intn(8)
		g := linalg.NewMatrix(m, n)
		for i := range g.Data {
			g.Data[i] = rng.NormFloat64()
		}
		x0 := linalg.NewVector(n)
		for i := range x0 {
			x0[i] = rng.NormFloat64()
		}
		h := linalg.NewVector(m)
		g.MulVec(h, x0)
		for i := range h {
			h[i] += 0.1 + rng.Float64()
		}
		z0 := linalg.NewVector(m)
		for i := range z0 {
			z0[i] = 0.1 + rng.Float64()
		}
		c := linalg.NewVector(n)
		g.MulVecTAdd(c, 1, z0)
		c.Scale(-1)
		c.Scale(-1) // c = Gᵀz0 ... need dual feasible: Gᵀz + c = 0 → c = −Gᵀz0
		g.MulVecTAdd(c, 1, z0)
		c.Scale(-1)

		p := &Problem{C: c, G: g, H: h, Dims: cone.Dims{NonNeg: m}}
		sol, err := Solve(p, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Status != StatusOptimal {
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}
		// Strong duality.
		if math.Abs(sol.PrimalObj-sol.DualObj) > 1e-5*math.Max(1, math.Abs(sol.PrimalObj)) {
			t.Fatalf("trial %d: duality gap %v vs %v", trial, sol.PrimalObj, sol.DualObj)
		}
		// Primal feasibility: Gx + s = h with s ≥ −tol.
		gx := linalg.NewVector(m)
		g.MulVec(gx, sol.X)
		for i := range gx {
			if gx[i]-h[i] > 1e-6 {
				t.Fatalf("trial %d: primal constraint %d violated by %v", trial, i, gx[i]-h[i])
			}
		}
	}
}

// Random feasible SOCPs built the same way, with one SOC block.
func TestRandomSOCPStrongDuality(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(5)
		l := 1 + rng.Intn(4)
		q := 3
		dims := cone.Dims{NonNeg: l, SOC: []int{q}}
		m := dims.Dim()
		g := linalg.NewMatrix(m, n)
		for i := range g.Data {
			g.Data[i] = rng.NormFloat64()
		}
		// Interior primal point.
		x0 := linalg.NewVector(n)
		for i := range x0 {
			x0[i] = rng.NormFloat64()
		}
		s0 := linalg.NewVector(m)
		for i := 0; i < l; i++ {
			s0[i] = 0.1 + rng.Float64()
		}
		var tail float64
		for i := 1; i < q; i++ {
			s0[l+i] = rng.NormFloat64()
			tail += s0[l+i] * s0[l+i]
		}
		s0[l] = math.Sqrt(tail) + 0.1 + rng.Float64()
		h := linalg.NewVector(m)
		g.MulVec(h, x0)
		linalg.Add(h, h, s0)
		// Interior dual point.
		z0 := linalg.NewVector(m)
		for i := 0; i < l; i++ {
			z0[i] = 0.1 + rng.Float64()
		}
		tail = 0
		for i := 1; i < q; i++ {
			z0[l+i] = rng.NormFloat64()
			tail += z0[l+i] * z0[l+i]
		}
		z0[l] = math.Sqrt(tail) + 0.1 + rng.Float64()
		c := linalg.NewVector(n)
		g.MulVecTAdd(c, 1, z0)
		c.Scale(-1)

		p := &Problem{C: c, G: g, H: h, Dims: dims}
		sol, err := Solve(p, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Status != StatusOptimal {
			t.Fatalf("trial %d: status %v (gap %v)", trial, sol.Status, sol.Gap)
		}
		if math.Abs(sol.PrimalObj-sol.DualObj) > 1e-4*math.Max(1, math.Abs(sol.PrimalObj)) {
			t.Fatalf("trial %d: duality gap: %v vs %v", trial, sol.PrimalObj, sol.DualObj)
		}
		if !dims.Interior(sol.S) && dims.InteriorMargin(sol.S) < -1e-7 {
			t.Fatalf("trial %d: returned slack outside cone (margin %v)", trial, dims.InteriorMargin(sol.S))
		}
	}
}

// TestMaxIterReported: an unreachable iteration budget surfaces as
// StatusMaxIterations (unless the best iterate already meets the reduced
// acceptance tolerances).
func TestMaxIterReported(t *testing.T) {
	b := NewBuilder()
	u := b.AddVar()
	v := b.AddVar()
	b.SetObjective(u, 4)
	b.SetObjective(v, 1)
	b.AddProductGE(u, v, 1)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Solve(p, Options{MaxIter: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusMaxIterations {
		t.Fatalf("status = %v, want max iterations", sol.Status)
	}
	if sol.X == nil {
		t.Fatal("best iterate not returned")
	}
}

// TestSolveOptionsRespected: explicit tolerances flow through.
func TestSolveOptionsRespected(t *testing.T) {
	b := NewBuilder()
	x := b.AddVar()
	b.SetObjective(x, 1)
	b.AddNonNeg(Expr(-3).Plus(1, x))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Very loose tolerances still produce an optimal status quickly.
	sol, err := Solve(p, Options{FeasTol: 1e-3, AbsTol: 1e-3, RelTol: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status %v", sol.Status)
	}
	if math.Abs(sol.X[x]-3) > 0.1 {
		t.Fatalf("x = %v", sol.X[x])
	}
}

func TestValidateErrors(t *testing.T) {
	p := &Problem{C: linalg.Vector{1}, G: linalg.NewMatrix(2, 2), H: linalg.NewVector(2), Dims: cone.Dims{NonNeg: 2}}
	if err := p.Validate(); err == nil {
		t.Fatal("G column mismatch accepted")
	}
	// Equality rows are not supported: a set A, even one without rows, is
	// an error from Validate and from Solve, never a silently ignored block.
	for _, a := range []*linalg.Matrix{linalg.NewMatrix(0, 1), linalg.NewMatrix(1, 1)} {
		eq := &Problem{C: linalg.Vector{1}, G: linalg.NewMatrix(1, 1), H: linalg.NewVector(1), Dims: cone.Dims{NonNeg: 1}, A: a}
		eq.G.Set(0, 0, -1)
		if err := eq.Validate(); err == nil {
			t.Fatalf("Validate accepted a problem with a %d-row A", a.Rows)
		}
		if sol, err := Solve(eq, Options{}); err == nil || sol != nil {
			t.Fatalf("Solve accepted a problem with a %d-row A: solution %v, error %v", a.Rows, sol, err)
		}
	}
	p2 := &Problem{C: linalg.Vector{1}, H: linalg.NewVector(1), Dims: cone.Dims{NonNeg: 1}}
	if err := p2.Validate(); err == nil {
		t.Fatal("nil G accepted")
	}
	p3 := &Problem{C: linalg.Vector{1}, G: linalg.NewMatrix(1, 1), H: linalg.NewVector(2), Dims: cone.Dims{NonNeg: 1}}
	if err := p3.Validate(); err == nil {
		t.Fatal("h length mismatch accepted")
	}
}

func TestStatusString(t *testing.T) {
	for st, want := range map[Status]string{
		StatusOptimal:          "optimal",
		StatusPrimalInfeasible: "primal infeasible",
		StatusDualInfeasible:   "dual infeasible",
		StatusMaxIterations:    "max iterations",
		StatusNumericalError:   "numerical error",
		Status(99):             "Status(99)",
	} {
		if st.String() != want {
			t.Fatalf("Status(%d).String() = %q, want %q", int(st), st.String(), want)
		}
	}
}

func TestBuilderRejectsBadVar(t *testing.T) {
	b := NewBuilder()
	b.AddVar()
	b.SetObjective(0, 1)
	b.AddNonNeg(Expr(0).Plus(1, 5)) // unknown variable index
	if _, err := b.Build(); err == nil {
		t.Fatal("unknown variable accepted")
	}
}
