package linalg

import (
	"math/rand"
	"testing"
)

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestMatrixAtSet(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatalf("At(1,2) = %v", m.At(1, 2))
	}
	m.Add(1, 2, 2)
	if m.At(1, 2) != 7 {
		t.Fatalf("Add: At(1,2) = %v", m.At(1, 2))
	}
	m.Zero()
	if m.NormInf() != 0 {
		t.Fatal("Zero failed")
	}
}

func TestNewMatrixFromRows(t *testing.T) {
	m := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("FromRows wrong: %v", m)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ragged rows should panic")
		}
	}()
	NewMatrixFromRows([][]float64{{1}, {2, 3}})
}

func TestIdentityMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randMatrix(rng, 4, 4)
	i4 := Identity(4)
	ai := a.Mul(i4)
	for k := range a.Data {
		if !almostEqual(ai.Data[k], a.Data[k], 1e-15) {
			t.Fatalf("A·I != A at %d", k)
		}
	}
}

func TestTranspose(t *testing.T) {
	m := NewMatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("T dims %dx%d", tr.Rows, tr.Cols)
	}
	if tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Fatalf("T values wrong: %v", tr)
	}
}

func TestMulVecAgainstMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		r, c := 1+rng.Intn(8), 1+rng.Intn(8)
		a := randMatrix(rng, r, c)
		x := NewVector(c)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		// Compute via MulVec.
		y1 := NewVector(r)
		a.MulVec(y1, x)
		// Compute via explicit loops.
		y2 := NewVector(r)
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				y2[i] += a.At(i, j) * x[j]
			}
		}
		for i := range y1 {
			if !almostEqual(y1[i], y2[i], 1e-12) {
				t.Fatalf("MulVec mismatch at %d: %v vs %v", i, y1[i], y2[i])
			}
		}
	}
}

func TestMulVecTMatchesTransposeMul(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		r, c := 1+rng.Intn(8), 1+rng.Intn(8)
		a := randMatrix(rng, r, c)
		x := NewVector(r)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y1 := NewVector(c)
		a.MulVecTAdd(y1, 1, x)
		y2 := NewVector(c)
		a.T().MulVec(y2, x)
		for i := range y1 {
			if !almostEqual(y1[i], y2[i], 1e-12) {
				t.Fatalf("MulVecT mismatch at %d: %v vs %v", i, y1[i], y2[i])
			}
		}
	}
}

func TestMulVecAddAccumulates(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{1, 0}, {0, 1}})
	dstT := Vector{1, 1}
	a.MulVecTAdd(dstT, -1, Vector{1, 1})
	if dstT[0] != 0 || dstT[1] != 0 {
		t.Fatalf("MulVecTAdd: got %v", dstT)
	}
}

func TestAtAInto(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		r, c := 1+rng.Intn(10), 1+rng.Intn(10)
		a := randMatrix(rng, r, c)
		got := NewMatrix(c, c)
		a.AtAInto(got)
		want := a.T().Mul(a)
		for k := range got.Data {
			if !almostEqual(got.Data[k], want.Data[k], 1e-11) {
				t.Fatalf("AtAInto mismatch at %d: %v vs %v", k, got.Data[k], want.Data[k])
			}
		}
		// Symmetry.
		for i := 0; i < c; i++ {
			for j := 0; j < c; j++ {
				if got.At(i, j) != got.At(j, i) {
					t.Fatalf("AtAInto not symmetric at (%d,%d)", i, j)
				}
			}
		}
	}
}

func TestMatrixCloneIndependent(t *testing.T) {
	a := Identity(2)
	b := a.Clone()
	b.Set(0, 0, 9)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestMatrixString(t *testing.T) {
	a := Identity(2)
	s := a.String()
	if s == "" {
		t.Fatal("empty String()")
	}
}
