package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// randSparseDense builds a dense matrix with the given fill fraction.
func randSparseDense(rng *rand.Rand, rows, cols int, fill float64) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		if rng.Float64() < fill {
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

func TestSparseFromDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		rows := 1 + rng.Intn(12)
		cols := 1 + rng.Intn(12)
		d := randSparseDense(rng, rows, cols, 0.3)
		s := NewSparseFromDense(d)
		back := s.ToDense()
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if back.At(i, j) != d.At(i, j) {
					t.Fatalf("trial %d: entry (%d,%d) = %v, want %v", trial, i, j, back.At(i, j), d.At(i, j))
				}
				if s.At(i, j) != d.At(i, j) {
					t.Fatalf("trial %d: At(%d,%d) = %v, want %v", trial, i, j, s.At(i, j), d.At(i, j))
				}
			}
		}
		nnz := 0
		for _, v := range d.Data {
			if v != 0 {
				nnz++
			}
		}
		if s.NNZ() != nnz {
			t.Fatalf("trial %d: NNZ = %d, want %d", trial, s.NNZ(), nnz)
		}
	}
}

func TestSparseEmptyRowsAndCols(t *testing.T) {
	// Row 1 and column 2 are entirely empty; row 3 is empty too.
	d := NewMatrixFromRows([][]float64{
		{1, 0, 0, 2},
		{0, 0, 0, 0},
		{0, 3, 0, 0},
		{0, 0, 0, 0},
	})
	s := NewSparseFromDense(d)
	if s.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", s.NNZ())
	}
	x := Vector{1, 1, 1, 1}
	got := NewVector(4)
	s.MulVec(got, x)
	want := NewVector(4)
	d.MulVec(want, x)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("MulVec[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// AᵀA with an empty column stays zero on that row/col.
	plan := NewSparseAtA(s)
	plan.Compute(s)
	ata := plan.Result.ToDense()
	for j := 0; j < 4; j++ {
		if ata.At(2, j) != 0 || ata.At(j, 2) != 0 {
			t.Fatalf("AtA row/col 2 not zero: %v / %v", ata.At(2, j), ata.At(j, 2))
		}
	}
	// A fully empty matrix round-trips.
	empty := NewSparseFromDense(NewMatrix(3, 2))
	if empty.NNZ() != 0 {
		t.Fatalf("empty NNZ = %d", empty.NNZ())
	}
	NewSparseAtA(empty).Compute(empty)
}

func TestSparseMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		rows := 1 + rng.Intn(15)
		cols := 1 + rng.Intn(15)
		d := randSparseDense(rng, rows, cols, 0.25)
		s := NewSparseFromDense(d)
		x := NewVector(cols)
		y := NewVector(rows)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range y {
			y[i] = rng.NormFloat64()
		}

		gotR, wantR := NewVector(rows), NewVector(rows)
		s.MulVec(gotR, x)
		d.MulVec(wantR, x)
		gotC, wantC := NewVector(cols), NewVector(cols)
		s.MulVecTAdd(gotC, 1, y)
		d.MulVecTAdd(wantC, 1, y)
		for i := range gotR {
			if math.Abs(gotR[i]-wantR[i]) > 1e-12 {
				t.Fatalf("trial %d: MulVec[%d] = %v, want %v", trial, i, gotR[i], wantR[i])
			}
		}
		for i := range gotC {
			if math.Abs(gotC[i]-wantC[i]) > 1e-12 {
				t.Fatalf("trial %d: MulVecTAdd[%d] from zero = %v, want %v", trial, i, gotC[i], wantC[i])
			}
		}

		s.MulVecAdd(gotR, 0.5, x)
		ax := NewVector(rows)
		d.MulVec(ax, x)
		wantR.AddScaled(0.5, ax)
		s.MulVecTAdd(gotC, -2, y)
		d.MulVecTAdd(wantC, -2, y)
		for i := range gotR {
			if math.Abs(gotR[i]-wantR[i]) > 1e-12 {
				t.Fatalf("trial %d: MulVecAdd mismatch at %d", trial, i)
			}
		}
		for i := range gotC {
			if math.Abs(gotC[i]-wantC[i]) > 1e-12 {
				t.Fatalf("trial %d: MulVecTAdd mismatch at %d", trial, i)
			}
		}
	}
}

// TestSparseAtAIntoMatchesDense: the fixed-pattern sparse AᵀA, expanded into
// a dense matrix, agrees bit for bit with the dense product, because both sum
// every entry over the rows in ascending order.
func TestSparseAtAIntoMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		rows := 1 + rng.Intn(15)
		cols := 1 + rng.Intn(10)
		fill := 0.1 + 0.5*rng.Float64()
		d := randSparseDense(rng, rows, cols, fill)
		s := NewSparseFromDense(d)
		plan := NewSparseAtA(s)
		plan.Compute(s)
		got := plan.Result.ToDense()
		want := NewMatrix(cols, cols)
		d.AtAInto(want)
		for i := range got.Data {
			// Identical accumulation order: the results agree bitwise.
			if got.Data[i] != want.Data[i] {
				t.Fatalf("trial %d: AtA entry %d = %v, want %v", trial, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestSparseAtASkipMatchesRowsRemoved: the row-masked plan must compute
// exactly AᵀA of the matrix with the skipped rows deleted — the same
// pattern, and the same values bit for bit — while Compute still takes the
// full matrix.
func TestSparseAtASkipMatchesRowsRemoved(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 50; trial++ {
		rows, cols := 1+rng.Intn(15), 1+rng.Intn(10)
		d := randSparseDense(rng, rows, cols, 0.1+0.5*rng.Float64())
		skip := make([]bool, rows)
		kept := NewMatrix(0, cols)
		for r := 0; r < rows; r++ {
			skip[r] = rng.Intn(3) == 0
			if !skip[r] {
				kept.Data = append(kept.Data, d.Data[r*cols:(r+1)*cols]...)
				kept.Rows++
			}
		}
		a := NewSparseFromDense(d)
		got := NewSparseAtASkip(a, skip)
		got.Compute(a)
		ak := NewSparseFromDense(kept)
		want := NewSparseAtA(ak)
		want.Compute(ak)
		if got.Result.NNZ() != want.Result.NNZ() {
			t.Fatalf("trial %d: %d nonzeros, rows removed %d", trial, got.Result.NNZ(), want.Result.NNZ())
		}
		for k, j := range want.Result.ColIdx {
			if got.Result.ColIdx[k] != j || got.Result.Val[k] != want.Result.Val[k] {
				t.Fatalf("trial %d: entry %d = (col %d, %v), rows removed (col %d, %v)",
					trial, k, got.Result.ColIdx[k], got.Result.Val[k], j, want.Result.Val[k])
			}
		}
	}
}

func TestSparseFromPattern(t *testing.T) {
	s := NewSparseFromPattern(3, 4, [][]int{{0, 2}, nil, {1, 2, 3}})
	if s.NNZ() != 5 {
		t.Fatalf("NNZ = %d, want 5", s.NNZ())
	}
	for i := range s.Val {
		s.Val[i] = float64(i + 1)
	}
	if s.At(0, 2) != 2 || s.At(2, 3) != 5 || s.At(1, 1) != 0 {
		t.Fatalf("pattern values misplaced: %v", s.Val)
	}
	c := s.Clone()
	c.Val[0] = 99
	if s.Val[0] == 99 {
		t.Fatal("Clone shares value storage")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("unsorted pattern did not panic")
		}
	}()
	NewSparseFromPattern(1, 3, [][]int{{2, 1}})
}
