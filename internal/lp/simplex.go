// Package lp implements a dense two-phase primal simplex solver for linear
// programs in inequality form
//
//	minimize    cᵀx
//	subject to  A x ≤ b,   x free or x ≥ 0 per variable.
//
// It is a test oracle, imported only by tests: it independently
// cross-validates the interior-point solver in internal/socp on the LP
// subclass, and the budget-first baseline's phase 2 (buffer sizes for fixed
// budgets), which production solves with that interior-point solver.
//
// The implementation converts the program to standard computational form
// (free variables split, slacks added), runs a Phase-I simplex to find a
// basic feasible point, then Phase-II with Bland's anti-cycling rule.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Status is the outcome of a solve.
type Status int

const (
	// StatusOptimal: an optimal basic solution was found.
	StatusOptimal Status = iota
	// StatusInfeasible: the constraints admit no solution.
	StatusInfeasible
	// StatusUnbounded: the objective is unbounded below.
	StatusUnbounded
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Problem is an LP in inequality form. Rows of A paired with entries of B are
// the constraints Aᵢ·x ≤ Bᵢ. Free[i] marks variable i as unrestricted in
// sign; otherwise xᵢ ≥ 0.
type Problem struct {
	C    []float64
	A    [][]float64
	B    []float64
	Free []bool // optional; nil means all variables ≥ 0
}

// Solution is the result of Solve.
type Solution struct {
	Status Status
	X      []float64
	Obj    float64
	// Iterations counts simplex pivots across both phases.
	Iterations int
}

// Validate checks the problem shapes.
func (p *Problem) Validate() error {
	n := len(p.C)
	if n == 0 {
		return errors.New("lp: no variables")
	}
	if len(p.B) != len(p.A) {
		return fmt.Errorf("lp: %d constraint rows but %d bounds", len(p.A), len(p.B))
	}
	for i, row := range p.A {
		if len(row) != n {
			return fmt.Errorf("lp: row %d has %d coefficients, want %d", i, len(row), n)
		}
	}
	if p.Free != nil && len(p.Free) != n {
		return fmt.Errorf("lp: Free has length %d, want %d", len(p.Free), n)
	}
	return nil
}

const pivotEps = 1e-9

// Solve runs the two-phase simplex method.
func Solve(p *Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := len(p.C)
	m := len(p.A)

	// Map to computational variables: x_i = u_i (− v_i when free), u,v ≥ 0.
	// Column layout: for each original variable, one or two columns.
	type colRef struct {
		orig int
		sign float64
	}
	var cols []colRef
	for j := 0; j < n; j++ {
		cols = append(cols, colRef{j, 1})
		if p.Free != nil && p.Free[j] {
			cols = append(cols, colRef{j, -1})
		}
	}
	nc := len(cols)

	// Standard form: A' y + s = b, y ≥ 0, s ≥ 0 (slack per row). Make b ≥ 0
	// by negating rows... rows with b < 0 get an artificial variable in
	// Phase I instead of the slack as the basis column.
	// Tableau columns: [structural (nc) | slacks (m) | artificials (≤m)].
	a := make([][]float64, m)
	b := make([]float64, m)
	for i := 0; i < m; i++ {
		a[i] = make([]float64, nc)
		for k, cr := range cols {
			a[i][k] = p.A[i][cr.orig] * cr.sign
		}
		b[i] = p.B[i]
	}

	// Negate rows with negative rhs so b ≥ 0; slack coefficient becomes −1.
	slackSign := make([]float64, m)
	for i := 0; i < m; i++ {
		slackSign[i] = 1
		if b[i] < 0 {
			for k := range a[i] {
				a[i][k] = -a[i][k]
			}
			b[i] = -b[i]
			slackSign[i] = -1
		}
	}

	// Build the full tableau with slacks and artificials.
	nArt := 0
	artAt := make([]int, m) // artificial column index per row, -1 if none
	for i := 0; i < m; i++ {
		if slackSign[i] < 0 {
			artAt[i] = nArt
			nArt++
		} else {
			artAt[i] = -1
		}
	}
	total := nc + m + nArt
	t := make([][]float64, m)
	basis := make([]int, m)
	for i := 0; i < m; i++ {
		t[i] = make([]float64, total)
		copy(t[i], a[i])
		t[i][nc+i] = slackSign[i]
		if artAt[i] >= 0 {
			t[i][nc+m+artAt[i]] = 1
			basis[i] = nc + m + artAt[i]
		} else {
			basis[i] = nc + i
		}
	}

	iterations := 0

	// pivot performs a pivot on (row, col).
	pivot := func(row, col int) {
		pv := t[row][col]
		inv := 1 / pv
		for k := range t[row] {
			t[row][k] *= inv
		}
		b[row] *= inv
		for i := range t {
			if i == row {
				continue
			}
			f := t[i][col]
			if f == 0 {
				continue
			}
			for k := range t[i] {
				t[i][k] -= f * t[row][k]
			}
			b[i] -= f * b[row]
		}
		basis[row] = col
		iterations++
	}

	// runSimplex minimizes cost over the current tableau. allowed limits the
	// eligible entering columns. Returns false if unbounded.
	runSimplex := func(cost []float64, allowed int) bool {
		for {
			// Reduced costs: r_j = cost_j − cost_B·t_col.
			cb := make([]float64, m)
			for i := 0; i < m; i++ {
				cb[i] = cost[basis[i]]
			}
			enter := -1
			for j := 0; j < allowed; j++ {
				r := cost[j]
				for i := 0; i < m; i++ {
					r -= cb[i] * t[i][j]
				}
				if r < -pivotEps {
					enter = j // Bland: first improving column
					break
				}
			}
			if enter < 0 {
				return true
			}
			// Ratio test with Bland's rule (smallest basis index tie-break).
			leave := -1
			best := math.Inf(1)
			for i := 0; i < m; i++ {
				if t[i][enter] > pivotEps {
					ratio := b[i] / t[i][enter]
					if ratio < best-pivotEps || (math.Abs(ratio-best) <= pivotEps &&
						(leave < 0 || basis[i] < basis[leave])) {
						best = ratio
						leave = i
					}
				}
			}
			if leave < 0 {
				return false // unbounded
			}
			pivot(leave, enter)
			if iterations > 50000 {
				// Safety valve; Bland's rule prevents cycling, so this
				// indicates a pathological instance size.
				return true
			}
		}
	}

	// Phase I: minimize the sum of artificials.
	if nArt > 0 {
		cost1 := make([]float64, total)
		for j := nc + m; j < total; j++ {
			cost1[j] = 1
		}
		runSimplex(cost1, total)
		var inf float64
		for i := 0; i < m; i++ {
			if basis[i] >= nc+m {
				inf += b[i]
			}
		}
		if inf > 1e-7 {
			return &Solution{Status: StatusInfeasible, Iterations: iterations}, nil
		}
		// Drive remaining artificials out of the basis where possible.
		for i := 0; i < m; i++ {
			if basis[i] < nc+m {
				continue
			}
			done := false
			for j := 0; j < nc+m && !done; j++ {
				if math.Abs(t[i][j]) > pivotEps {
					pivot(i, j)
					done = true
				}
			}
			// A fully zero row is redundant; its artificial stays basic at 0.
		}
	}

	// Phase II on the structural + slack columns only.
	cost2 := make([]float64, total)
	for k, cr := range cols {
		cost2[k] = p.C[cr.orig] * cr.sign
	}
	if !runSimplex(cost2, nc+m) {
		return &Solution{Status: StatusUnbounded, Iterations: iterations}, nil
	}

	// Extract the solution.
	x := make([]float64, n)
	for i := 0; i < m; i++ {
		if basis[i] < nc {
			cr := cols[basis[i]]
			x[cr.orig] += cr.sign * b[i]
		}
	}
	var obj float64
	for j := 0; j < n; j++ {
		obj += p.C[j] * x[j]
	}
	return &Solution{Status: StatusOptimal, X: x, Obj: obj, Iterations: iterations}, nil
}
