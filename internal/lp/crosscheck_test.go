package lp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cone"
	"repro/internal/linalg"
	"repro/internal/socp"
)

// TestSimplexAgreesWithIPM cross-validates the two independent solvers on
// random feasible bounded LPs: the interior-point method from internal/socp
// restricted to the orthant must find the same optimal value as the simplex.
func TestSimplexAgreesWithIPM(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	agree := 0
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(5)
		m := n + 1 + rng.Intn(7)
		x0 := make([]float64, n)
		for j := range x0 {
			x0[j] = rng.Float64() * 3
		}
		a := make([][]float64, 0, m+n+1)
		b := make([]float64, 0, m+n+1)
		for i := 0; i < m; i++ {
			row := make([]float64, n)
			var dot float64
			for j := range row {
				row[j] = rng.NormFloat64()
				dot += row[j] * x0[j]
			}
			a = append(a, row)
			b = append(b, dot+0.1+rng.Float64())
		}
		// x ≥ 0 rows for the conic form (-x ≤ 0) and a bounding box.
		for j := 0; j < n; j++ {
			row := make([]float64, n)
			row[j] = -1
			a = append(a, row)
			b = append(b, 0)
			row2 := make([]float64, n)
			row2[j] = 1
			a = append(a, row2)
			b = append(b, x0[j]+20)
		}
		c := make([]float64, n)
		for j := range c {
			c[j] = rng.NormFloat64()
		}

		// Simplex (x ≥ 0 is implicit; the extra rows are harmless).
		sSol, err := Solve(&Problem{C: c, A: a, B: b})
		if err != nil {
			t.Fatalf("trial %d simplex: %v", trial, err)
		}
		if sSol.Status != StatusOptimal {
			t.Fatalf("trial %d simplex status: %v", trial, sSol.Status)
		}

		// IPM over the orthant cone.
		g := linalg.NewMatrix(len(a), n)
		h := linalg.NewVector(len(a))
		for i, row := range a {
			copy(g.Data[i*n:(i+1)*n], row)
			h[i] = b[i]
		}
		ip := &socp.Problem{
			C: linalg.Vector(c).Clone(), G: g, H: h,
			Dims: cone.Dims{NonNeg: len(a)},
		}
		iSol, err := socp.Solve(ip, socp.Options{})
		if err != nil {
			t.Fatalf("trial %d ipm: %v", trial, err)
		}
		if iSol.Status != socp.StatusOptimal {
			t.Fatalf("trial %d ipm status: %v", trial, iSol.Status)
		}
		if math.Abs(iSol.PrimalObj-sSol.Obj) > 1e-5*math.Max(1, math.Abs(sSol.Obj)) {
			t.Fatalf("trial %d: IPM obj %v != simplex obj %v", trial, iSol.PrimalObj, sSol.Obj)
		}
		agree++
	}
	if agree != 60 {
		t.Fatalf("only %d/60 trials agreed", agree)
	}
}
