package linalg

import (
	"fmt"
	"slices"
)

// PanelData exposes the factor's internals to tests: the flat row-major
// panel storage of L and the diagonal of D. Bitwise comparison of these two
// arrays across runs is the strongest form of the determinism contract.
func (c *SupernodalCholesky) PanelData() (px []float64, d []float64) {
	return c.px, c.d
}

// CaptureAnalyzeInputs records every matrix that Analyze orders with
// AMDOrder (no caller permutation) until restore runs. Tests using it must
// not run in parallel with other factorizations.
func CaptureAnalyzeInputs() (inputs func() []*SparseMatrix, restore func()) {
	var seen []*SparseMatrix
	prev := analyzeOrder
	analyzeOrder = func(a *SparseMatrix) []int {
		seen = append(seen, a)
		return prev(a)
	}
	return func() []*SparseMatrix { return seen }, func() { analyzeOrder = prev }
}

// CheckAnalyzeOrder orders a with AMDOrder and with the O(n²) reference
// scan, and returns nnz(L) of the ordering, or an error when the two
// permutations differ.
func CheckAnalyzeOrder(a *SparseMatrix) (nnzL int, err error) {
	got, want := AMDOrder(a), amdOrderScan(a)
	if !slices.Equal(got, want) {
		return 0, fmt.Errorf("n %d, nnz %d: AMDOrder and the reference scan disagree", a.Rows, a.NNZ())
	}
	return Analyze(a, got).NNZL(), nil
}
