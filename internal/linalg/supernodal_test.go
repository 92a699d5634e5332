package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// TestSupernodalLayoutInvariants checks the structural contract of the
// supernodal symbolic analysis on random patterns: the supernodes partition
// the columns, each panel's row list is ascending with the own columns as
// its prefix, and every update run lies inside its target's column range.
func TestSupernodalLayoutInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(120)
		_, as := randomSparseSPD(rng, n, 0.02+0.2*rng.Float64())
		ss := Analyze(as, nil).Supernodal()
		if int(ss.colPtr[0]) != 0 || int(ss.colPtr[ss.ns]) != n {
			t.Fatalf("trial %d: supernodes do not cover the columns", trial)
		}
		for s := 0; s < ss.ns; s++ {
			c0, c1 := int(ss.colPtr[s]), int(ss.colPtr[s+1])
			if c1 <= c0 || c1-c0 > maxSupernodeWidth {
				t.Fatalf("trial %d: supernode %d has width %d", trial, s, c1-c0)
			}
			w := c1 - c0
			rlo, rhi := int(ss.rowPtr[s]), int(ss.rowPtr[s+1])
			if rhi-rlo < w {
				t.Fatalf("trial %d: supernode %d has fewer rows than columns", trial, s)
			}
			for idx := rlo; idx < rhi; idx++ {
				if idx > rlo && ss.rows[idx] <= ss.rows[idx-1] {
					t.Fatalf("trial %d: supernode %d rows not ascending", trial, s)
				}
				if idx-rlo < w && int(ss.rows[idx]) != c0+(idx-rlo) {
					t.Fatalf("trial %d: supernode %d row prefix is not its own columns", trial, s)
				}
				if ss.snOf[ss.rows[rlo]] != int32(s) {
					t.Fatalf("trial %d: snOf mismatch", trial)
				}
			}
		}
		for s := 0; s < ss.ns; s++ {
			c0, c1 := ss.colPtr[s], ss.colPtr[s+1]
			for u := ss.updPtr[s]; u < ss.updPtr[s+1]; u++ {
				upd := ss.upds[u]
				if upd.d >= int32(s) {
					t.Fatalf("trial %d: update into %d from non-descendant %d", trial, s, upd.d)
				}
				for idx := upd.lo; idx < upd.hi; idx++ {
					if r := ss.rows[idx]; r < c0 || r >= c1 {
						t.Fatalf("trial %d: update run row %d outside target columns [%d,%d)", trial, r, c0, c1)
					}
				}
				if u > ss.updPtr[s] && ss.upds[u-1].d >= upd.d {
					t.Fatalf("trial %d: updates into %d not in ascending descendant order", trial, s)
				}
			}
		}
	}
}

// TestSupernodalMatchesSimplicial is the randomized property test of the
// blocked backend: across random sparse SPD matrices, Solve and SolveRefined
// must match the simplicial factorization to 1e-8.
func TestSupernodalMatchesSimplicial(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 100; trial++ {
		n := 5 + rng.Intn(120)
		density := 0.01 + 0.3*rng.Float64()
		_, as := randomSparseSPD(rng, n, density)

		sym := Analyze(as, nil)
		simp := sym.NewNumeric()
		if err := simp.Factorize(as, 0, 0); err != nil {
			t.Fatalf("trial %d: simplicial factorization failed: %v", trial, err)
		}
		sup := sym.NewSupernodal(1)
		if err := sup.Factorize(as, 0, 0); err != nil {
			t.Fatalf("trial %d: supernodal factorization failed: %v", trial, err)
		}
		if sup.Shift() != 0 {
			t.Fatalf("trial %d: unexpected supernodal shift %g", trial, sup.Shift())
		}

		b := NewVector(n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want := b.Clone()
		simp.Solve(want)
		got := b.Clone()
		sup.Solve(got)
		scale := 1 + NormInf(want)
		for i := range got {
			if d := math.Abs(got[i] - want[i]); d > 1e-8*scale {
				t.Fatalf("trial %d (n=%d density=%.2f): Solve x[%d] differs by %g",
					trial, n, density, i, d)
			}
		}
		wantR := NewVector(n)
		simp.SolveRefined(as, b, wantR)
		gotR := NewVector(n)
		sup.SolveRefined(as, b, gotR)
		for i := range gotR {
			if d := math.Abs(gotR[i] - wantR[i]); d > 1e-8*scale {
				t.Fatalf("trial %d: SolveRefined x[%d] differs by %g", trial, i, d)
			}
		}
	}
}

// TestSupernodalQuasiDef: the blocked backend must handle the symmetric
// quasi-definite reduced KKT form with the same ±eps pivot floor as the
// simplicial and dense backends.
func TestSupernodalQuasiDef(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(40)
		nb := 1 + rng.Intn(4)
		hd, _ := randomSparseSPD(rng, n, 0.2)
		const eps = 1e-10
		nt := n + nb
		kd := NewMatrix(nt, nt)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				kd.Set(i, j, hd.At(i, j))
			}
			kd.Add(i, i, eps)
		}
		for e := 0; e < nb; e++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < 0.4 {
					v := rng.NormFloat64()
					kd.Set(n+e, j, v)
					kd.Set(j, n+e, v)
				}
			}
			kd.Set(n+e, n+e, -eps)
		}
		ks := NewSparseFromDense(kd)
		sym := Analyze(ks, nil)
		simp := sym.NewNumeric()
		if err := simp.FactorizeQuasiDef(ks, eps); err != nil {
			t.Fatalf("trial %d: simplicial quasi-definite factorization: %v", trial, err)
		}
		sup := sym.NewSupernodal(1)
		if err := sup.FactorizeQuasiDef(ks, eps); err != nil {
			t.Fatalf("trial %d: supernodal quasi-definite factorization: %v", trial, err)
		}
		b := NewVector(nt)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want := NewVector(nt)
		simp.SolveRefined(ks, b, want)
		got := NewVector(nt)
		sup.SolveRefined(ks, b, got)
		for i := range got {
			if d := math.Abs(got[i] - want[i]); d > 1e-7*(1+NormInf(want)) {
				t.Fatalf("trial %d: x[%d] differs by %g", trial, i, d)
			}
		}
	}
}

// TestSupernodalRegularizationRetry mirrors the simplicial degenerate-shift
// property: a singular PSD matrix must fail without regularization and
// succeed through the escalating-shift retry with identical policy.
func TestSupernodalRegularizationRetry(t *testing.T) {
	n := 6
	ad := Identity(n)
	ad.Set(n-1, n-1, 0) // exactly singular
	as := NewSparseFromDense(ad)
	sc := Analyze(as, nil).NewSupernodal(1)
	if err := sc.Factorize(as, 0, 0); err == nil {
		t.Fatal("singular matrix factorized without regularization")
	}
	if err := sc.Factorize(as, 0, 1e-10); err != nil {
		t.Fatalf("regularized factorization failed: %v", err)
	}
	if sc.Shift() <= 0 {
		t.Fatalf("expected a positive retry shift, got %g", sc.Shift())
	}
	b := NewVector(n)
	for i := range b {
		b[i] = float64(i + 1)
	}
	x := b.Clone()
	sc.Solve(x)
	for i := 0; i < n-1; i++ {
		if d := math.Abs(x[i] - b[i]); d > 1e-6 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], b[i])
		}
	}
	if err := sc.Factorize(as, 1e-8, 0); err != nil {
		t.Fatalf("static shift factorization failed: %v", err)
	}
	if sc.Shift() != 0 {
		t.Fatalf("static shift should not trigger the retry path, got %g", sc.Shift())
	}
}

// TestSupernodalParallelBitwise pins the scheduler's determinism contract:
// the factor values (panels and diagonal) must be bitwise identical at any
// parallelism level, for both the SPD and quasi-definite paths.
func TestSupernodalParallelBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	_, as := randomSparseSPD(rng, 400, 0.01)
	sym := Analyze(as, nil)
	if ns := sym.Supernodal().ns; ns < minParallelSupernodes {
		t.Fatalf("test matrix too small to exercise the parallel path: %d supernodes", ns)
	}
	ref := sym.NewSupernodal(1)
	if err := ref.Factorize(as, 0, 1e-12); err != nil {
		t.Fatal(err)
	}
	refPx := append([]float64(nil), ref.px...)
	refD := ref.d.Clone()
	for _, workers := range []int{2, 3, 8} {
		sc := sym.NewSupernodal(workers)
		if err := sc.Factorize(as, 0, 1e-12); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range refPx {
			// Exact float comparison: determinism contract requires bitwise equality.
			if sc.px[i] != refPx[i] {
				t.Fatalf("workers=%d: panel value %d differs from serial", workers, i)
			}
		}
		for i := range refD {
			// Exact float comparison: determinism contract requires bitwise equality.
			if sc.d[i] != refD[i] {
				t.Fatalf("workers=%d: diagonal %d differs from serial", workers, i)
			}
		}
	}
}

// TestSupernodalRefactorize: numeric refactorization on the same pattern
// with rewritten values, through the same workspace, must track the
// simplicial answer — the steady-state cycle of the IPM hot loop.
func TestSupernodalRefactorize(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	n := 60
	ad, as := randomSparseSPD(rng, n, 0.1)
	sym := Analyze(as, nil)
	simp := sym.NewNumeric()
	sup := sym.NewSupernodal(2)
	for pass := 0; pass < 5; pass++ {
		scale := NewVector(n)
		for i := range scale {
			scale[i] = 0.5 + rng.Float64()
		}
		for i := 0; i < n; i++ {
			for k := as.RowPtr[i]; k < as.RowPtr[i+1]; k++ {
				j := as.ColIdx[k]
				as.Val[k] = ad.At(i, j) * scale[i] * scale[j]
			}
		}
		if err := simp.Factorize(as, 0, 0); err != nil {
			t.Fatalf("pass %d: simplicial: %v", pass, err)
		}
		if err := sup.Factorize(as, 0, 0); err != nil {
			t.Fatalf("pass %d: supernodal: %v", pass, err)
		}
		b := NewVector(n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want := NewVector(n)
		simp.SolveRefined(as, b, want)
		got := NewVector(n)
		sup.SolveRefined(as, b, got)
		for i := range got {
			if d := math.Abs(got[i] - want[i]); d > 1e-8*(1+NormInf(want)) {
				t.Fatalf("pass %d: x[%d] differs by %g", pass, i, d)
			}
		}
	}
}
