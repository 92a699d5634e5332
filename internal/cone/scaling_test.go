package cone

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// TestScalingDefiningIdentity checks the NT property W z = W⁻¹ s = λ.
func TestScalingDefiningIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, d := range testDims() {
		for trial := 0; trial < 30; trial++ {
			s := randInterior(rng, d)
			z := randInterior(rng, d)
			w, err := NewScaling(d, s, z)
			if err != nil {
				t.Fatalf("%+v: %v", d, err)
			}
			wz := linalg.NewVector(d.Dim())
			w.Apply(wz, z)
			winvS := linalg.NewVector(d.Dim())
			w.ApplyInv(winvS, s)
			lambda := w.Lambda()
			for i := range wz {
				if !almostEqual(wz[i], winvS[i], 1e-8) {
					t.Fatalf("%+v trial %d: Wz != W⁻¹s at %d: %v vs %v", d, trial, i, wz[i], winvS[i])
				}
				if !almostEqual(wz[i], lambda[i], 1e-8) {
					t.Fatalf("%+v: λ mismatch at %d: %v vs %v", d, i, wz[i], lambda[i])
				}
			}
			if !d.Interior(lambda) {
				t.Fatalf("%+v: λ not interior", d)
			}
		}
	}
}

// TestScalingInverseRoundTrip checks W⁻¹(W x) = x for arbitrary x.
func TestScalingInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, d := range testDims() {
		s := randInterior(rng, d)
		z := randInterior(rng, d)
		w, err := NewScaling(d, s, z)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			x := linalg.NewVector(d.Dim())
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			y := linalg.NewVector(d.Dim())
			w.Apply(y, x)
			back := linalg.NewVector(d.Dim())
			w.ApplyInv(back, y)
			for i := range x {
				if !almostEqual(back[i], x[i], 1e-9) {
					t.Fatalf("%+v: W⁻¹Wx != x at %d: %v vs %v", d, i, back[i], x[i])
				}
			}
		}
	}
}

// TestScalingSymmetric verifies xᵀ(Wy) = (Wx)ᵀy, i.e. W is symmetric.
func TestScalingSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, d := range testDims() {
		s := randInterior(rng, d)
		z := randInterior(rng, d)
		w, err := NewScaling(d, s, z)
		if err != nil {
			t.Fatal(err)
		}
		x := linalg.NewVector(d.Dim())
		y := linalg.NewVector(d.Dim())
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		wx := linalg.NewVector(d.Dim())
		wy := linalg.NewVector(d.Dim())
		w.Apply(wx, x)
		w.Apply(wy, y)
		if !almostEqual(linalg.Dot(x, wy), linalg.Dot(wx, y), 1e-9) {
			t.Fatalf("%+v: W not symmetric: %v vs %v", d, linalg.Dot(x, wy), linalg.Dot(wx, y))
		}
	}
}

// TestScalingGapInvariant verifies λᵀλ = sᵀz, which follows from
// λ = Wz = W⁻¹s.
func TestScalingGapInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, d := range testDims() {
		for trial := 0; trial < 20; trial++ {
			s := randInterior(rng, d)
			z := randInterior(rng, d)
			w, err := NewScaling(d, s, z)
			if err != nil {
				t.Fatal(err)
			}
			l := w.Lambda()
			if !almostEqual(linalg.Dot(l, l), linalg.Dot(s, z), 1e-8) {
				t.Fatalf("%+v: λᵀλ = %v but sᵀz = %v", d, linalg.Dot(l, l), linalg.Dot(s, z))
			}
		}
	}
}

// TestScalingRejectsBoundary verifies that NewScaling, and Update on a
// Scaling already shaped by an interior pair, report ErrNotInterior for
// boundary points.
func TestScalingRejectsBoundary(t *testing.T) {
	d := Dims{NonNeg: 1, SOC: []int{3}}
	in := linalg.Vector{1, 2, 0, 0}
	for _, pair := range [][2]linalg.Vector{
		{{0, 2, 0, 0}, in}, // orthant coordinate of s zero
		{in, {0, 2, 0, 0}}, // orthant coordinate of z zero
		{{1, 1, 1, 0}, in}, // SOC block of s on the boundary
		{in, {1, 2, 0, 2}}, // SOC block of z on the boundary
	} {
		if _, err := NewScaling(d, pair[0], pair[1]); !errors.Is(err, ErrNotInterior) {
			t.Fatalf("NewScaling(%v, %v) = %v, want ErrNotInterior", pair[0], pair[1], err)
		}
		w, err := NewScaling(d, in, in)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Update(d, pair[0], pair[1]); !errors.Is(err, ErrNotInterior) {
			t.Fatalf("Update(%v, %v) = %v, want ErrNotInterior", pair[0], pair[1], err)
		}
	}
}

// TestScalingCentralPoint: when s = z, W must be the identity map.
func TestScalingCentralPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, d := range testDims() {
		s := randInterior(rng, d)
		w, err := NewScaling(d, s, s)
		if err != nil {
			t.Fatal(err)
		}
		x := linalg.NewVector(d.Dim())
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := linalg.NewVector(d.Dim())
		w.Apply(y, x)
		for i := range x {
			if !almostEqual(y[i], x[i], 1e-9) {
				t.Fatalf("%+v: W != I at central point (index %d: %v vs %v)", d, i, y[i], x[i])
			}
		}
	}
}

// TestJnorm sanity.
func TestJnorm(t *testing.T) {
	if got := jnorm(linalg.Vector{5, 3, 0}); !almostEqual(got, 4, 1e-12) {
		t.Fatalf("jnorm = %v, want 4", got)
	}
	if got := jnorm(linalg.Vector{1, 2, 0}); got != 0 {
		t.Fatalf("jnorm of exterior point = %v, want 0", got)
	}
	_ = math.Pi
}

// randDims returns a random cone with an orthant of 0..4 coordinates and
// 0..5 SOC blocks of sizes 2..6, never empty.
func randDims(rng *rand.Rand) Dims {
	d := Dims{NonNeg: rng.Intn(5)}
	for k := rng.Intn(6); k > 0; k-- {
		d.SOC = append(d.SOC, 2+rng.Intn(5))
	}
	if d.Dim() == 0 {
		d.NonNeg = 1
	}
	return d
}

// refSOC is the NT scaling of one SOC block computed with a separate buffer
// for every intermediate, the oracle for the staged in-place update.
func refSOC(s, z linalg.Vector) (v, vinv linalg.Vector, detV float64) {
	ns, nz := jnorm(s), jnorm(z)
	q := len(s)
	sbar, zbar := make(linalg.Vector, q), make(linalg.Vector, q)
	for i := range s {
		sbar[i] = s[i] / ns
		zbar[i] = z[i] / nz
	}
	gamma := math.Sqrt((1 + linalg.Dot(sbar, zbar)) / 2)
	eta := ns / nz
	sqrtEta := math.Sqrt(eta)
	w := make(linalg.Vector, q)
	w[0] = sqrtEta * (sbar[0] + zbar[0]) / (2 * gamma)
	for i := 1; i < q; i++ {
		w[i] = sqrtEta * (sbar[i] - zbar[i]) / (2 * gamma)
	}
	v = make(linalg.Vector, q)
	v0 := math.Sqrt((w[0] + math.Sqrt(eta)) / 2)
	v[0] = v0
	for i := 1; i < q; i++ {
		v[i] = w[i] / (2 * v0)
	}
	detV = math.Sqrt(eta)
	vinv = make(linalg.Vector, q)
	vinv[0] = v[0] / detV
	for i := 1; i < q; i++ {
		vinv[i] = -v[i] / detV
	}
	return v, vinv, detV
}

func sameBits(a, b linalg.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkScalingBits fails unless w holds, bit for bit, the scaling of (s, z)
// computed afresh: d and λ of a new NewScaling, and per block the v, v⁻¹
// and det(v) of the separate-buffer oracle.
func checkScalingBits(t *testing.T, w *Scaling, d Dims, s, z linalg.Vector) {
	t.Helper()
	fresh, err := NewScaling(d, s, z)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(w.d, fresh.d) || !sameBits(w.lambda, fresh.lambda) || len(w.blocks) != len(d.SOC) {
		t.Fatalf("%+v: reused scaling differs from a fresh one in d or λ", d)
	}
	off := d.NonNeg
	for bi, q := range d.SOC {
		v, vinv, detV := refSOC(s[off:off+q], z[off:off+q])
		blk := w.blocks[bi]
		if !sameBits(blk.v, v) || !sameBits(blk.vinv, vinv) || math.Float64bits(blk.detV) != math.Float64bits(detV) {
			t.Fatalf("%+v block %d: v, v⁻¹ or det(v) differ from the separate-buffer oracle", d, bi)
		}
		if !sameBits(fresh.blocks[bi].v, v) || !sameBits(fresh.blocks[bi].vinv, vinv) {
			t.Fatalf("%+v block %d: fresh scaling differs from the separate-buffer oracle", d, bi)
		}
		off += q
	}
}

// TestUpdateReusedMatchesFresh: Update on one reused Scaling, over several
// successive pairs, gives bit for bit the scaling a fresh NewScaling and the
// separate-buffer oracle compute for the same pair.
func TestUpdateReusedMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 40; trial++ {
		d := randDims(rng)
		var w Scaling
		for pair := 0; pair < 5; pair++ {
			s, z := randInterior(rng, d), randInterior(rng, d)
			if err := w.Update(d, s, z); err != nil {
				t.Fatal(err)
			}
			checkScalingBits(t, &w, d, s, z)
		}
	}
}

// TestUpdateReshapes: calling Update with a cone of another shape resizes
// the storage, so the result matches a fresh scaling of the new cone, and
// returning to an earlier shape works too.
func TestUpdateReshapes(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	shapes := []Dims{
		{NonNeg: 3, SOC: []int{3, 5}},
		{NonNeg: 3, SOC: []int{5, 3}}, // same total size, other blocks
		{SOC: []int{2}},
		{NonNeg: 7},
		{NonNeg: 1, SOC: []int{4, 4, 6, 2}},
		{NonNeg: 3, SOC: []int{3, 5}},
	}
	var w Scaling
	for _, d := range shapes {
		s, z := randInterior(rng, d), randInterior(rng, d)
		if err := w.Update(d, s, z); err != nil {
			t.Fatal(err)
		}
		checkScalingBits(t, &w, d, s, z)
		if len(w.d) != d.NonNeg || len(w.lambda) != d.Dim() {
			t.Fatalf("%+v: storage sized %d, %d", d, len(w.d), len(w.lambda))
		}
	}
}

// TestApplyAliasing: Apply and ApplyInv with dst = x give exactly the
// non-aliased result, for orthant coordinates and SOC blocks of sizes 2..5.
func TestApplyAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, d := range []Dims{
		{NonNeg: 1},
		{NonNeg: 1, SOC: []int{2}},
		{SOC: []int{3}},
		{NonNeg: 2, SOC: []int{4, 2}},
		{NonNeg: 1, SOC: []int{5, 3, 4, 2}},
	} {
		w, err := NewScaling(d, randInterior(rng, d), randInterior(rng, d))
		if err != nil {
			t.Fatal(err)
		}
		for _, apply := range []struct {
			name string
			f    func(dst, x linalg.Vector)
		}{{"Apply", w.Apply}, {"ApplyInv", w.ApplyInv}} {
			x := linalg.NewVector(d.Dim())
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			want := linalg.NewVector(d.Dim())
			apply.f(want, x)
			apply.f(x, x)
			if !sameBits(x, want) {
				t.Fatalf("%+v %s: aliased result %v, want %v", d, apply.name, x, want)
			}
		}
	}
}
