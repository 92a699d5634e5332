package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestVectorBasics(t *testing.T) {
	v := NewVector(4)
	if len(v) != 4 {
		t.Fatalf("NewVector length = %d, want 4", len(v))
	}
	copy(v, Vector{2, 2, 2, 2})
	v.Scale(0.5)
	if v[3] != 1 {
		t.Fatalf("Scale: v[3] = %v, want 1", v[3])
	}
	w := v.Clone()
	w[0] = 7
	if v[0] == 7 {
		t.Fatal("Clone shares storage")
	}
	v.Zero()
	if NormInf(v) != 0 {
		t.Fatal("Zero did not zero the vector")
	}
}

func TestDotAndNorms(t *testing.T) {
	v := Vector{3, 4}
	if got := Norm2(v); !almostEqual(got, 5, 1e-15) {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	if got := Dot(v, Vector{1, 2}); got != 11 {
		t.Fatalf("Dot = %v, want 11", got)
	}
	if got := NormInf(Vector{-7, 3}); got != 7 {
		t.Fatalf("NormInf = %v, want 7", got)
	}
	if got := Norm2(Vector{}); got != 0 {
		t.Fatalf("Norm2(empty) = %v, want 0", got)
	}
}

func TestNorm2Overflow(t *testing.T) {
	// A naive sum of squares overflows; the scaled implementation must not.
	big := math.MaxFloat64 / 4
	v := Vector{big, big}
	got := Norm2(v)
	want := big * math.Sqrt2
	if math.IsInf(got, 0) || !almostEqual(got, want, 1e-12) {
		t.Fatalf("Norm2 overflow-guard failed: got %v want %v", got, want)
	}
}

func TestAxpbyAndFriends(t *testing.T) {
	x := Vector{1, 2, 3}
	y := Vector{4, 5, 6}
	dst := NewVector(3)
	Axpby(dst, 2, x, -1, y)
	want := Vector{-2, -1, 0}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("Axpby[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
	Add(dst, x, y)
	if dst[2] != 9 {
		t.Fatalf("Add: got %v", dst)
	}
	Sub(dst, x, y)
	if dst[0] != -3 {
		t.Fatalf("Sub: got %v", dst)
	}
	x.AddScaled(3, y)
	if x[0] != 13 {
		t.Fatalf("AddScaled: got %v", x)
	}
}

func TestVectorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot with mismatched lengths should panic")
		}
	}()
	Dot(Vector{1}, Vector{1, 2})
}

// Property: Cauchy-Schwarz |v·w| <= |v||w| and triangle inequality.
func TestDotCauchySchwarzProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		v, w := Vector(a[:n]), Vector(b[:n])
		for _, x := range append(v.Clone(), w...) {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true // skip pathological inputs
			}
		}
		lhs := math.Abs(Dot(v, w))
		rhs := Norm2(v) * Norm2(w)
		return lhs <= rhs*(1+1e-10)+1e-300
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNorm2MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(20)
		v := NewVector(n)
		var ssq float64
		for i := range v {
			v[i] = rng.NormFloat64()
			ssq += v[i] * v[i]
		}
		if !almostEqual(Norm2(v), math.Sqrt(ssq), 1e-12) {
			t.Fatalf("Norm2 mismatch: %v vs %v", Norm2(v), math.Sqrt(ssq))
		}
	}
}
