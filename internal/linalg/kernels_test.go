package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// The reference kernels below are the plain loops the solver's kernels
// replaced. TestKKTKernelsMatchReference requires the kernels to reproduce
// them bit for bit, so a rewrite for speed cannot move an iterate.

// refSolve is the three-pass triangular solve: forward with L, a separate
// diagonal pass, backward with Lᵀ.
func refSolve(c *SparseCholesky, b Vector) {
	n, w, perm, lp := c.sym.n, c.w, c.sym.perm, c.sym.lp
	for k := 0; k < n; k++ {
		w[k] = b[perm[k]]
	}
	for k := 0; k < n; k++ {
		if wk := w[k]; wk != 0 {
			for p := lp[k]; p < lp[k+1]; p++ {
				w[c.li[p]] -= c.lx[p] * wk
			}
		}
	}
	for k := 0; k < n; k++ {
		w[k] /= c.d[k]
	}
	for k := n - 1; k >= 0; k-- {
		wk := w[k]
		for p := lp[k]; p < lp[k+1]; p++ {
			wk -= c.lx[p] * w[c.li[p]]
		}
		w[k] = wk
	}
	for k := 0; k < n; k++ {
		b[perm[k]] = w[k]
	}
}

// refSolveRefined forms the refinement residual as a product followed by a
// separate subtraction pass.
func refSolveRefined(c *SparseCholesky, a *SparseMatrix, b, x Vector) {
	x.CopyFrom(b)
	refSolve(c, x)
	r := NewVector(len(b))
	refMulVec(a, r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	refSolve(c, r)
	x.AddScaled(1, r)
}

func refMulVec(s *SparseMatrix, dst, x Vector) {
	for i := 0; i < s.Rows; i++ {
		var sum float64
		for k := s.RowPtr[i]; k < s.RowPtr[i+1]; k++ {
			sum += s.Val[k] * x[s.ColIdx[k]]
		}
		dst[i] = sum
	}
}

func refMulVecAdd(s *SparseMatrix, dst Vector, alpha float64, x Vector) {
	for i := 0; i < s.Rows; i++ {
		var sum float64
		for k := s.RowPtr[i]; k < s.RowPtr[i+1]; k++ {
			sum += s.Val[k] * x[s.ColIdx[k]]
		}
		dst[i] += alpha * sum
	}
}

func refMulVecTAdd(s *SparseMatrix, dst Vector, alpha float64, x Vector) {
	for i := 0; i < s.Rows; i++ {
		xi := alpha * x[i]
		if xi == 0 {
			continue
		}
		for k := s.RowPtr[i]; k < s.RowPtr[i+1]; k++ {
			dst[s.ColIdx[k]] += xi * s.Val[k]
		}
	}
}

// sameBits returns the first index at which got and want differ in their
// bit patterns, or −1.
func sameBits(got, want Vector) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// randomCSR draws a rows×cols pattern in which about a fifth of the rows
// are empty, with some stored values exactly zero.
func randomCSR(rng *rand.Rand, rows, cols int) *SparseMatrix {
	pattern := make([][]int, rows)
	for i := range pattern {
		if rng.Intn(5) == 0 {
			continue
		}
		for j := 0; j < cols; j++ {
			if rng.Float64() < 0.3 {
				pattern[i] = append(pattern[i], j)
			}
		}
	}
	s := NewSparseFromPattern(rows, cols, pattern)
	for k := range s.Val {
		if rng.Intn(8) != 0 {
			s.Val[k] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		}
	}
	return s
}

// randomOperand draws a vector in which about a quarter of the entries are
// exact zeros of either sign.
func randomOperand(rng *rand.Rand, n int) Vector {
	v := NewVector(n)
	for i := range v {
		switch rng.Intn(8) {
		case 0:
		case 1:
			v[i] = math.Copysign(0, -1)
		default:
			v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2))
		}
	}
	return v
}

func TestKKTKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	t.Run("csr", func(t *testing.T) {
		for trial := 0; trial < 200; trial++ {
			rows, cols := 1+rng.Intn(30), 1+rng.Intn(30)
			s := randomCSR(rng, rows, cols)
			x, y := randomOperand(rng, cols), randomOperand(rng, rows)
			b, base := randomOperand(rng, rows), randomOperand(rng, cols)
			alpha := []float64{1, -1, 0.5, rng.NormFloat64()}[trial%4]

			got, want := NewVector(rows), NewVector(rows)
			s.MulVec(got, x)
			refMulVec(s, want, x)
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("trial %d: MulVec entry %d = %v, reference %v", trial, i, got[i], want[i])
			}

			gotT, wantT := base.Clone(), base.Clone()
			s.MulVecTAdd(gotT, alpha, y)
			refMulVecTAdd(s, wantT, alpha, y)
			if i := sameBits(gotT, wantT); i >= 0 {
				t.Fatalf("trial %d: MulVecTAdd entry %d = %v, reference %v", trial, i, gotT[i], wantT[i])
			}

			// Residual: the product, then b − (A x) in a second pass.
			s.Residual(got, b, x)
			refMulVec(s, want, x)
			for i := range want {
				want[i] = b[i] - want[i]
			}
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("trial %d: Residual entry %d = %v, reference %v", trial, i, got[i], want[i])
			}
			// ResidualAdd: b, then the removed MulVecAdd with −1, then
			// + y, the residual the IPM's KKT check formed before.
			s.ResidualAdd(got, b, x, y)
			want.CopyFrom(b)
			refMulVecAdd(s, want, -1, x)
			Add(want, want, y)
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("trial %d: ResidualAdd entry %d = %v, reference %v", trial, i, got[i], want[i])
			}
			// In place over b and over y.
			inB, inY := b.Clone(), y.Clone()
			s.ResidualAdd(inB, inB, x, y)
			s.ResidualAdd(inY, b, x, inY)
			if i, j := sameBits(inB, want), sameBits(inY, want); i >= 0 || j >= 0 {
				t.Fatalf("trial %d: in-place ResidualAdd differs (dst=b at %d, dst=y at %d)", trial, i, j)
			}
		}
	})
	t.Run("solve", func(t *testing.T) {
		for trial := 0; trial < 60; trial++ {
			n := 2 + rng.Intn(40)
			_, a := randomSparseSPD(rng, n, 0.05+0.3*rng.Float64())
			sc := NewSparseCholesky(a, nil)
			var err error
			if trial%2 == 0 {
				err = sc.Factorize(a, 1e-12, 1e-12)
			} else {
				err = sc.FactorizeQuasiDef(a, 1e-10)
			}
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			b := randomOperand(rng, n)
			got, want := b.Clone(), b.Clone()
			sc.Solve(got)
			refSolve(sc, want)
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("trial %d: Solve entry %d = %v, reference %v", trial, i, got[i], want[i])
			}
			sc.SolveRefined(a, b, got)
			refSolveRefined(sc, a, b, want)
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("trial %d: SolveRefined entry %d = %v, reference %v", trial, i, got[i], want[i])
			}
		}
	})
}
