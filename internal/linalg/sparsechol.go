package linalg

import (
	"errors"
	"math"

	"repro/internal/faultinject"
)

// ErrNotPositiveDefinite is returned when a factorization meets a
// non-positive pivot even after the allowed regularization.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// Factorize numerically refactorizes P (A + shift·I) Pᵀ = L D Lᵀ for a
// matrix a carrying the analyzed pattern, reusing the symbolic structure and
// workspaces without allocating. The static shift is the caller's intended
// diagonal regularization (it is added on the fly, so no shifted copy of A
// is needed). If a pivot still comes out non-positive and reg > 0, the
// factorization retries with increasing extra shifts reg, 10·reg, … up to
// 1e8·reg before giving up with ErrNotPositiveDefinite.
//
//bbvet:hotpath
func (c *SparseCholesky) Factorize(a *SparseMatrix, shift, reg float64) error {
	c.checkPattern(a)
	if faultinject.Enabled() {
		if err := faultinject.Hit(faultinject.SiteSparseLDLT); err != nil {
			return err
		}
	}
	extra := 0.0
	for attempt := 0; ; attempt++ {
		if c.tryFactorize(a, shift+extra, false, 0) {
			c.shift = extra
			return nil
		}
		if reg <= 0 || attempt > 9 {
			return ErrNotPositiveDefinite
		}
		if extra == 0 {
			extra = reg
		} else {
			extra *= 10
		}
	}
}

// FactorizeQuasiDef refactorizes a symmetric quasi-definite matrix (e.g. the
// regularized KKT matrix [[H+εI, Bᵀ], [B, −I]] of split rows) with the analyzed
// pattern. Diagonal pivots whose magnitude falls below eps are floored at
// ±eps preserving sign, matching the dense LDLT policy; the factorization
// fails only on NaN breakdown.
//
//bbvet:hotpath
func (c *SparseCholesky) FactorizeQuasiDef(a *SparseMatrix, eps float64) error {
	c.checkPattern(a)
	if faultinject.Enabled() {
		if err := faultinject.Hit(faultinject.SiteSparseLDLT); err != nil {
			return err
		}
	}
	c.shift = 0
	if !c.tryFactorize(a, 0, true, eps) {
		return ErrNotPositiveDefinite
	}
	return nil
}

//bbvet:hotpath
func (c *SparseCholesky) checkPattern(a *SparseMatrix) {
	if a.Rows != c.sym.n || a.Cols != c.sym.n || a.NNZ() != c.sym.nnzA {
		panic("linalg: SparseCholesky.Factorize pattern differs from the analyzed one")
	}
}

// tryFactorize is the up-looking numeric kernel: row k of L solves the
// triangular system L[0:k,0:k] y = A_perm[0:k,k] whose nonzero pattern is
// the union of elimination-tree paths from the column's entries — collected
// in topological order via the flag stamps, so the sparse solve visits each
// contributing column exactly once. The symbolic structure (up/ui/usrc,
// etree, column pointers) is read through the shared immutable
// SymbolicFactor; only this workspace's numeric buffers are written.
//
//bbvet:hotpath
func (c *SparseCholesky) tryFactorize(a *SparseMatrix, shift float64, quasiDef bool, eps float64) bool {
	sym := c.sym
	n := sym.n
	up, ui, usrc, parent, lp := sym.up, sym.ui, sym.usrc, sym.parent, sym.lp
	y, pat, flag, lnz := c.y, c.pat, c.flag, c.lnz
	y.Zero()
	for k := range lnz {
		lnz[k] = 0
	}
	for k := 0; k < n; k++ {
		top := n
		flag[k] = k
		for p := up[k]; p < up[k+1]; p++ {
			i := ui[p]
			y[i] += a.Val[usrc[p]]
			ln := 0
			for ; flag[i] != k; i = parent[i] {
				pat[ln] = i
				ln++
				flag[i] = k
			}
			for ln > 0 {
				ln--
				top--
				pat[top] = pat[ln]
			}
		}
		dk := y[k] + shift
		y[k] = 0
		for s := top; s < n; s++ {
			i := pat[s]
			yi := y[i]
			y[i] = 0
			lki := yi / c.d[i]
			end := lp[i] + lnz[i]
			for p := lp[i]; p < end; p++ {
				y[c.li[p]] -= c.lx[p] * yi
			}
			c.li[end] = k
			c.lx[end] = lki
			lnz[i]++
			dk -= lki * yi
		}
		if math.IsNaN(dk) {
			return false
		}
		if quasiDef {
			if math.Abs(dk) < eps {
				if dk < 0 {
					dk = -eps
				} else {
					dk = eps
				}
			}
		} else if dk <= 0 {
			return false
		}
		c.d[k] = dk
	}
	return true
}
