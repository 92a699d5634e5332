package socp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cone"
	"repro/internal/linalg"
)

// randomProblem builds a random SOCP of the given shape with a known interior
// primal and dual point (same construction as the strong-duality tests):
// h = Gx₀ + s₀ with s₀ interior, c = −Gᵀz₀ with z₀ interior. fill is the
// density of G (each entry is nonzero with that probability, but every column
// gets at least one entry so the problem stays bounded).
func randomProblem(rng *rand.Rand, n, l, nsoc int, fill float64) *Problem {
	dims := cone.Dims{NonNeg: l}
	for b := 0; b < nsoc; b++ {
		dims.SOC = append(dims.SOC, 3)
	}
	m := dims.Dim()
	g := linalg.NewMatrix(m, n)
	for i := range g.Data {
		// Leave structural zeros so the sparse path has pattern to exploit.
		if rng.Float64() < fill {
			g.Data[i] = rng.NormFloat64()
		}
	}
	for j := 0; j < n; j++ {
		g.Data[rng.Intn(m)*n+j] = rng.NormFloat64()
	}
	x0 := linalg.NewVector(n)
	for i := range x0 {
		x0[i] = rng.NormFloat64()
	}
	interior := func(v linalg.Vector) {
		for i := 0; i < l; i++ {
			v[i] = 0.1 + rng.Float64()
		}
		off := l
		for range dims.SOC {
			var tail float64
			for i := 1; i < 3; i++ {
				v[off+i] = rng.NormFloat64()
				tail += v[off+i] * v[off+i]
			}
			v[off] = math.Sqrt(tail) + 0.1 + rng.Float64()
			off += 3
		}
	}
	s0 := linalg.NewVector(m)
	interior(s0)
	h := linalg.NewVector(m)
	g.MulVec(h, x0)
	linalg.Add(h, h, s0)
	z0 := linalg.NewVector(m)
	interior(z0)
	c := linalg.NewVector(n)
	g.MulVecTAdd(c, 1, z0)
	c.Scale(-1)
	return &Problem{C: c, G: g, H: h, Dims: dims}
}

// withCSR returns a shallow copy of p carrying its dense G in CSR form, the
// form the solver and the Builder work in.
func withCSR(p *Problem) *Problem {
	q := *p
	q.GSparse, q.G = linalg.NewSparseFromDense(p.G), nil
	return &q
}

// realScalings returns NT scalings of real interior-point iterates of p:
// the best iterate after each of the first 4 iterations (in p's
// coordinates), plus nil for the identity scaling of the initial
// factorization.
func realScalings(t *testing.T, p *Problem) []*cone.Scaling {
	t.Helper()
	ws := []*cone.Scaling{nil}
	for k := 1; k <= 4; k++ {
		sol, err := Solve(p, Options{MaxIter: k})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Iterations < k {
			break // converged before iteration k
		}
		w, err := cone.NewScaling(p.Dims, sol.S, sol.Z)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	return ws
}

// TestSparseAssemblyMatchesDenseOracle pins the production normal-equations
// assembly — fillScaled on the fixed W⁻¹G pattern, then SparseAtA — against
// the dense reference: W⁻¹G by scaleRows on a dense copy of G, then
// ataInto. Both sum every entry of GᵀW⁻²G over the rows in ascending order,
// so the two agree bit for bit, on the pattern and off it, for NT scalings
// taken from real iterates.
func TestSparseAssemblyMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		p := randomProblem(rng, 2+rng.Intn(5), 1+rng.Intn(4), rng.Intn(3), 0.8)
		n := p.NumVars()
		sv := newSparseView(withCSR(p))
		ata := linalg.NewSparseAtA(sv.gs)
		want := linalg.NewMatrix(n, n)
		for k, w := range realScalings(t, p) {
			sv.fillScaled(w)
			ata.Compute(sv.gs)
			gd := p.G.Clone()
			if w != nil {
				scaleRows(w, p.Dims, gd)
			}
			ataInto(want, gd)
			got := toDense(ata.Result)
			for i := range want.Data {
				// Exact float comparison: bitwise agreement of the two assemblies is the property under test.
				if got.Data[i] != want.Data[i] {
					t.Fatalf("trial %d scaling %d: H entry (%d,%d) = %v, dense oracle %v",
						trial, k, i/n, i%n, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestSparseFactorMatchesDenseOracle is the property test of the full sparse
// factorization pipeline: the default solve (AMD-ordered simplicial LDLᵀ with
// symbolic reuse) must agree with the dense-factor oracle (the same sparse
// assembly, factorized by the dense Cholesky/LDLᵀ) to 1e-7 on randomized
// feasible instances. The elimination order differs from the dense
// factorization, so the iterates round differently and iteration counts may
// diverge by one or two — only the converged answers are compared. Tiny
// random sparse instances are often degenerate (the optimal face is a whole
// segment and any point on it is correct), so the test checks what is
// invariant: both paths certify optimality within the solver's tolerances
// and the optimal values agree tightly. Entrywise solution agreement on
// non-degenerate model instances is covered by
// TestSolveSparseMatchesDenseOracleCore.
func TestSparseFactorMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(5)
		p := randomProblem(rng, n, n+rng.Intn(4), rng.Intn(3), 0.8)
		sparse, err := Solve(p, Options{})
		if err != nil {
			t.Fatalf("trial %d: sparse solve: %v", trial, err)
		}
		restore := UseDenseFactorOracle()
		dense, err := Solve(p, Options{})
		restore()
		if err != nil {
			t.Fatalf("trial %d: dense solve: %v", trial, err)
		}
		if sparse.Status != StatusOptimal || dense.Status != StatusOptimal {
			t.Fatalf("trial %d: status sparse=%v dense=%v", trial, sparse.Status, dense.Status)
		}
		for _, s := range []*Solution{sparse, dense} {
			if s.PrimalRes > 1e-7 || s.DualRes > 1e-7 {
				t.Fatalf("trial %d: residuals too large: pres=%g dres=%g", trial, s.PrimalRes, s.DualRes)
			}
		}
		scale := math.Max(1, math.Abs(dense.PrimalObj))
		if d := math.Abs(sparse.PrimalObj - dense.PrimalObj); d > 1e-7*scale {
			t.Fatalf("trial %d: objective differs by %g (sparse %v, dense %v)",
				trial, d, sparse.PrimalObj, dense.PrimalObj)
		}
	}
}

// TestSparseViewPattern sanity-checks the sparse view against the dense G
// it mirrors.
func TestSparseViewPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := randomProblem(rng, 2+rng.Intn(5), 1+rng.Intn(4), rng.Intn(3), 0.8)
	sv := newSparseView(withCSR(p))
	// Unscaled fill (w = nil) must reproduce G on the shared pattern.
	sv.fillScaled(nil)
	for k, m := range []*linalg.SparseMatrix{sv.g, sv.gs} {
		d := toDense(m)
		for i := range d.Data {
			// Exact float comparison: the view copies G's values unchanged.
			if d.Data[i] != p.G.Data[i] {
				t.Fatalf("matrix %d (G, then W⁻¹G at W = I): entry (%d,%d) = %v, want %v", k, i/p.G.Cols, i%p.G.Cols, d.Data[i], p.G.Data[i])
			}
		}
	}
}

// BenchmarkSolveSparseVsDense pits the production pipeline against the
// dense-factor oracle on a mid-size structured instance — ~6% dense G, like
// the model matrices the builder emits. Sparse is the full pipeline (sparse
// assembly + simplicial LDLᵀ); DenseFactor keeps the sparse assembly and
// factorizes densely, isolating the factorization win.
func BenchmarkSolveSparseVsDense(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	p := randomProblem(rng, 60, 120, 20, 0.06)
	for _, bench := range []struct {
		name   string
		oracle bool
	}{
		{"Sparse", false},
		{"DenseFactor", true},
	} {
		b.Run(bench.name, func(b *testing.B) {
			if bench.oracle {
				defer UseDenseFactorOracle()()
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Solve(p, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
