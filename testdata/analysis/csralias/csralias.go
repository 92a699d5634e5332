// Package csralias is a bbvet fixture: escaping aliases of
// linalg.SparseMatrix backing slices (returns, field/global stores,
// composite-literal captures) are flagged; transient local views and
// copies are not.
package csralias

import "repro/internal/linalg"

type holder struct {
	vals []float64
}

var global []int

func returnsVal(m *linalg.SparseMatrix) []float64 {
	return m.Val // want `returning SparseMatrix.Val`
}

func returnsRowView(m *linalg.SparseMatrix, i int) []int {
	return m.ColIdx[m.RowPtr[i]:m.RowPtr[i+1]] // want `returning SparseMatrix.ColIdx`
}

func storesField(m *linalg.SparseMatrix, h *holder) {
	h.vals = m.Val // want `storing SparseMatrix.Val`
}

func storesGlobal(m *linalg.SparseMatrix) {
	global = m.RowPtr // want `storing SparseMatrix.RowPtr`
}

func capturesInLiteral(m *linalg.SparseMatrix) holder {
	return holder{vals: m.Val} // want `composite literal captures SparseMatrix.Val`
}

func localView(m *linalg.SparseMatrix, i int) float64 {
	row := m.Val[m.RowPtr[i]:m.RowPtr[i+1]] // transient local view: legal
	var s float64
	for _, v := range row {
		s += v
	}
	return s
}

func cloned(m *linalg.SparseMatrix) []float64 {
	return append([]float64(nil), m.Val...) // copy, not an alias: legal
}

func allowed(m *linalg.SparseMatrix) []int {
	//bbvet:allow csralias caller is an in-package test helper that treats the pattern as read-only
	return m.RowPtr
}
