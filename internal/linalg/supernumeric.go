package linalg

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
)

// minParallelSupernodes is the smallest supernode count worth spinning up
// workers for; below it the scheduling overhead exceeds the factorization.
const minParallelSupernodes = 16

// snStripeRows is the stripe height of the intra-panel update phase: panel
// rows are cut at fixed multiples of this constant and each stripe's updates
// are applied as one schedulable task. On matrices whose elimination tree
// collapses to a trailing chain of wide panels — every dataflow-graph normal
// equation does this — the inter-panel DAG has essentially no parallelism
// (the critical path is ~100% of the work), so the update phase of a single
// tall panel is where concurrency must come from. Stripe boundaries depend
// only on the symbolic structure, never on the worker count, so stripes can
// be applied in any order or in parallel: they write disjoint row ranges,
// and the arithmetic inside each stripe is fixed. 128 rows keeps a stripe's
// writes inside L1 while giving a few thousand-row panel dozens of
// independent tasks.
const snStripeRows = 128

// SupernodalCholesky is the blocked (supernodal) sparse LDLᵀ backend: the
// same P (A + shift·I) Pᵀ = L D Lᵀ factorization as SparseCholesky, with L
// stored as dense column panels and computed by dense panel kernels — panel
// assembly, blocked outer-product updates from descendant panels, and a
// dense LDLᵀ of each diagonal block. A bounded worker pool runs two kinds
// of concurrency: independent panels (disjoint subtrees of the elimination
// tree, generalized to the update DAG) and, inside each panel, fixed-height
// row stripes of the update phase — the level that matters on the trailing
// dense panel chain every dataflow normal equation degenerates to.
//
// Determinism: every stripe is computed start-to-finish by exactly one
// worker, stripes of a panel write disjoint row ranges, the updates into a
// stripe are applied in a fixed ascending descendant order, and stripe
// boundaries are fixed multiples of snStripeRows — so no floating-point
// reduction order ever depends on scheduling. Results are bitwise identical
// at any parallelism level, including 1 (where no goroutines are spawned at
// all).
//
// The retry semantics match SparseCholesky exactly: Factorize escalates the
// extra shift reg, 10·reg, … up to 1e8·reg before ErrNotPositiveDefinite,
// and FactorizeQuasiDef floors small pivots at ±eps preserving sign,
// failing only on NaN. A shift retry restarts the whole factorization, so
// retried results are as deterministic as first attempts.
type SupernodalCholesky struct {
	sym *SymbolicFactor
	ss  *SupernodalSymbolic

	px []float64 // flat panel storage of L (unit diagonal implicit)
	d  Vector    // diagonal of D

	shift   float64
	workers int
	wsc     []snScratch // one per worker

	// Parallel scheduler state (reused across factorizations; the serial
	// path never touches it). A queued task is one stripe of one panel,
	// encoded supernode<<32 | stripe.
	pending     []int32 // remaining unfinished descendants per supernode
	stripesLeft []int32 // remaining unfinished update stripes per supernode
	nstripes    int     // total stripe count across all supernodes
	remaining   atomic.Int32
	failed      atomic.Bool
	qmu         sync.Mutex
	qcond       *sync.Cond
	qbuf        []int64
	qhead       int
	qtail       int
	stopped     bool
	injMu       sync.Mutex
	injErr      error
	panicVal    any

	// Solve workspaces.
	w       Vector // permuted right-hand side
	scratch Vector // refinement residual
	acc     Vector // per-panel backward-solve accumulator, len maxWidth
}

// snScratch is one worker's private buffers. pos holds −1 everywhere except
// the rows of the panel in flight; processSupernode restores the sentinel
// before moving on, so the invariant survives across panels and attempts.
type snScratch struct {
	pos  []int32   // global row → local panel row of the supernode in flight
	ubuf []float64 // U = L_d[I,:]·D update buffer, maxWidth² floats
	col  []float64 // unscaled pivot column during the panel factorization
	ci   []int32   // target panel columns of the update in flight
	rk   []int32   // descendant row indices of the rectangular update region
	rp   []int32   // their local target panel rows
}

// NewSupernodal allocates a supernodal numeric workspace bound to the
// symbolic structure, computing the supernodal layout on first use. workers
// bounds the intra-factorization parallelism; values below 1 mean serial.
// The SymbolicFactor (and its supernodal layout) is shared, not copied.
func (s *SymbolicFactor) NewSupernodal(workers int) *SupernodalCholesky {
	ss := s.Supernodal()
	total := 0
	for sn := int32(0); sn < int32(ss.ns); sn++ {
		total += ss.stripeCount(sn)
	}
	c := &SupernodalCholesky{
		sym:         s,
		ss:          ss,
		px:          make([]float64, ss.valPtr[ss.ns]),
		d:           NewVector(s.n),
		pending:     make([]int32, ss.ns),
		stripesLeft: make([]int32, ss.ns),
		nstripes:    total,
		qbuf:        make([]int64, total),
		w:           NewVector(s.n),
		scratch:     NewVector(s.n),
		acc:         NewVector(ss.maxWidth),
	}
	c.qcond = sync.NewCond(&c.qmu)
	c.SetParallelism(workers)
	return c
}

// SetParallelism bounds the worker pool of subsequent factorizations.
// Shrinking is free; growing allocates the new workers' scratch once. The
// setting changes scheduling only, never results.
func (c *SupernodalCholesky) SetParallelism(workers int) {
	if workers < 1 {
		workers = 1
	}
	c.workers = workers
	for len(c.wsc) < workers {
		ws := snScratch{
			pos:  make([]int32, c.sym.n),
			ubuf: make([]float64, c.ss.maxWidth*c.ss.maxWidth),
			col:  make([]float64, c.ss.maxWidth),
			ci:   make([]int32, c.ss.maxWidth),
			rk:   make([]int32, c.ss.maxRows),
			rp:   make([]int32, c.ss.maxRows),
		}
		for i := range ws.pos {
			ws.pos[i] = -1
		}
		c.wsc = append(c.wsc, ws)
	}
}

// Parallelism returns the current worker bound.
func (c *SupernodalCholesky) Parallelism() int { return c.workers }

// Symbolic returns the shared symbolic phase of the factorization.
func (c *SupernodalCholesky) Symbolic() *SymbolicFactor { return c.sym }

// Shift returns the extra diagonal regularization the last Factorize had to
// apply beyond its static shift (0 if the matrix factorized cleanly).
func (c *SupernodalCholesky) Shift() float64 { return c.shift }

// Factorize numerically refactorizes P (A + shift·I) Pᵀ = L D Lᵀ with the
// same escalation policy as SparseCholesky.Factorize: on a non-positive
// pivot the whole factorization retries with extra shifts reg, 10·reg, …
// up to 1e8·reg before giving up with ErrNotPositiveDefinite.
func (c *SupernodalCholesky) Factorize(a *SparseMatrix, shift, reg float64) error {
	c.checkPattern(a)
	if faultinject.Enabled() {
		if err := faultinject.Hit(faultinject.SiteSparseLDLT); err != nil {
			return err
		}
	}
	extra := 0.0
	for attempt := 0; ; attempt++ {
		ok, err := c.tryFactorize(a, shift+extra, false, 0)
		if err != nil {
			return err
		}
		if ok {
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

// FactorizeQuasiDef refactorizes a symmetric quasi-definite matrix with the
// analyzed pattern, flooring small diagonal pivots at ±eps preserving sign
// — identical semantics to SparseCholesky.FactorizeQuasiDef; the
// factorization fails only on NaN breakdown.
func (c *SupernodalCholesky) FactorizeQuasiDef(a *SparseMatrix, eps float64) error {
	c.checkPattern(a)
	if faultinject.Enabled() {
		if err := faultinject.Hit(faultinject.SiteSparseLDLT); err != nil {
			return err
		}
	}
	c.shift = 0
	ok, err := c.tryFactorize(a, 0, true, eps)
	if err != nil {
		return err
	}
	if !ok {
		return ErrNotPositiveDefinite
	}
	return nil
}

func (c *SupernodalCholesky) checkPattern(a *SparseMatrix) {
	if a.Rows != c.sym.n || a.Cols != c.sym.n || a.NNZ() != c.sym.nnzA {
		panic("linalg: SupernodalCholesky.Factorize pattern differs from the analyzed one")
	}
}

// tryFactorize runs one full blocked factorization attempt. It reports
// whether every pivot was acceptable; a non-nil error is an injected fault
// and aborts the retry loop.
func (c *SupernodalCholesky) tryFactorize(a *SparseMatrix, shift float64, quasiDef bool, eps float64) (bool, error) {
	ss := c.ss
	c.injErr = nil
	c.panicVal = nil
	if c.workers <= 1 || ss.ns < minParallelSupernodes {
		// Serial path: ascending supernode order is a topological order of
		// the update DAG (updates always flow from lower to higher columns).
		// The stripes run in the same ascending order the parallel path may
		// shuffle — their arithmetic is order-independent by construction.
		ws := &c.wsc[0]
		for s := int32(0); s < int32(ss.ns); s++ {
			for st, nst := 0, ss.stripeCount(s); st < nst; st++ {
				if !c.processStripe(ws, s, st, a, shift, quasiDef, eps) {
					return false, c.injErr
				}
			}
			if !c.finishPanel(ws, s, quasiDef, eps) {
				return false, c.injErr
			}
		}
		return true, nil
	}
	c.failed.Store(false)
	c.stopped = false
	c.qhead, c.qtail = 0, 0
	copy(c.pending, ss.indeg)
	for s := int32(0); s < int32(ss.ns); s++ {
		c.stripesLeft[s] = int32(ss.stripeCount(s))
	}
	c.remaining.Store(int32(ss.ns))
	for _, s := range ss.leaves {
		for st, nst := 0, ss.stripeCount(s); st < nst; st++ {
			c.qbuf[c.qtail] = int64(s)<<32 | int64(st)
			c.qtail++
		}
	}
	p := c.workers
	if p > c.nstripes {
		p = c.nstripes
	}
	var wg sync.WaitGroup
	wg.Add(p)
	for wk := 0; wk < p; wk++ {
		go c.worker(&c.wsc[wk], &wg, a, shift, quasiDef, eps)
	}
	wg.Wait()
	if c.panicVal != nil {
		// Re-raise the first worker panic in the caller, mirroring what the
		// serial path would have done.
		panic(c.panicVal)
	}
	if c.failed.Load() {
		return false, c.injErr
	}
	return true, nil
}

// worker claims ready stripe tasks until the factorization completes or
// aborts. The worker that finishes a panel's last update stripe factorizes
// the panel's diagonal block, then decrements each target's dependency count
// and enqueues the stripes of targets whose last dependency this was. Which
// worker that is varies run to run; what it computes does not — every stripe
// and every panel factorization reads inputs that are complete and identical
// regardless of schedule. Panics are captured and re-raised by tryFactorize
// so a broken panel kernel cannot strand sibling workers.
func (c *SupernodalCholesky) worker(ws *snScratch, wg *sync.WaitGroup, a *SparseMatrix, shift float64, quasiDef bool, eps float64) {
	defer func() {
		if r := recover(); r != nil {
			c.injMu.Lock()
			if c.panicVal == nil {
				c.panicVal = r
			}
			c.injMu.Unlock()
			c.failed.Store(true)
			c.stopAll()
		}
		wg.Done()
	}()
	ss := c.ss
	for {
		task := c.pop()
		if task < 0 {
			return
		}
		s := int32(task >> 32)
		st := int(int32(task))
		if !c.processStripe(ws, s, st, a, shift, quasiDef, eps) {
			c.failed.Store(true)
			c.stopAll()
			return
		}
		if atomic.AddInt32(&c.stripesLeft[s], -1) != 0 {
			continue
		}
		if !c.finishPanel(ws, s, quasiDef, eps) {
			c.failed.Store(true)
			c.stopAll()
			return
		}
		for e := ss.tgtPtr[s]; e < ss.tgtPtr[s+1]; e++ {
			t := ss.tgts[e]
			if atomic.AddInt32(&c.pending[t], -1) == 0 {
				c.push(t)
			}
		}
		if c.remaining.Add(-1) == 0 {
			c.stopAll()
			return
		}
	}
}

// pop blocks until a stripe task is ready or the factorization is over,
// returning -1 in the latter case.
func (c *SupernodalCholesky) pop() int64 {
	c.qmu.Lock()
	for {
		if c.stopped {
			c.qmu.Unlock()
			return -1
		}
		if c.qhead < c.qtail {
			s := c.qbuf[c.qhead]
			c.qhead++
			c.qmu.Unlock()
			return s
		}
		c.qcond.Wait()
	}
}

// push enqueues every update stripe of a now-ready supernode and wakes
// enough workers to drain them.
func (c *SupernodalCholesky) push(s int32) {
	nst := c.ss.stripeCount(s)
	c.qmu.Lock()
	for st := 0; st < nst; st++ {
		c.qbuf[c.qtail] = int64(s)<<32 | int64(st)
		c.qtail++
	}
	c.qmu.Unlock()
	if nst == 1 {
		c.qcond.Signal()
	} else {
		c.qcond.Broadcast()
	}
}

// stopAll wakes every worker to exit: the factorization either finished or
// aborted.
func (c *SupernodalCholesky) stopAll() {
	c.qmu.Lock()
	c.stopped = true
	c.qmu.Unlock()
	c.qcond.Broadcast()
}

// setInjected records the first injected fault of an attempt.
func (c *SupernodalCholesky) setInjected(err error) {
	c.injMu.Lock()
	if c.injErr == nil {
		c.injErr = err
	}
	c.injMu.Unlock()
}

// stripeCount returns the number of update stripes panel s is cut into —
// a pure function of the symbolic structure.
func (ss *SupernodalSymbolic) stripeCount(s int32) int {
	nr := int(ss.rowPtr[s+1] - ss.rowPtr[s])
	return (nr + snStripeRows - 1) / snStripeRows
}

// processStripe computes rows [st·snStripeRows, (st+1)·snStripeRows) of
// panel s up to (not including) its diagonal-block factorization: zero,
// assemble the A entries landing in the stripe (+shift on the diagonal),
// and apply every descendant update's contribution to the stripe's rows in
// ascending descendant order. Stripes of one panel touch disjoint row
// ranges and each runs its fixed arithmetic start to finish on one worker,
// so neither the stripe schedule nor the worker count can change a bit of
// the result.
func (c *SupernodalCholesky) processStripe(ws *snScratch, s int32, st int, a *SparseMatrix, shift float64, quasiDef bool, eps float64) bool {
	ss := c.ss
	c0 := int(ss.colPtr[s])
	w := int(ss.colPtr[s+1]) - c0
	rlo := int(ss.rowPtr[s])
	nr := int(ss.rowPtr[s+1]) - rlo
	r0 := st * snStripeRows
	r1 := r0 + snStripeRows
	if r1 > nr {
		r1 = nr
	}
	P := c.px[ss.valPtr[s]:ss.valPtr[s+1]]
	S := P[r0*w : r1*w]
	for i := range S {
		S[i] = 0
	}
	// Assemble the permuted A entries landing in this stripe; the panel is
	// row-major, so the stripe owns the flat positions [r0·w, r1·w).
	av := a.Val
	usrc := c.sym.usrc
	dlo, dhi := r0*w, r1*w
	for e := ss.asnPtr[s]; e < ss.asnPtr[s+1]; e++ {
		if d := ss.aDst[e]; d >= dlo && d < dhi {
			P[d] = av[usrc[ss.aEnt[e]]]
		}
	}
	for cc := r0; cc < r1 && cc < w; cc++ {
		P[cc*w+cc] += shift
	}
	if faultinject.Enabled() {
		if err := faultinject.HitData(faultinject.SiteSupernodalPanel, S); err != nil {
			c.setInjected(err)
			return false
		}
	}
	// pos maps global rows to local panel rows for this stripe's rows only;
	// rows outside the stripe keep the −1 sentinel, so updates filter to the
	// stripe by the same lookup that filters amalgamation padding.
	pos := ws.pos
	rows := ss.rows
	for idx := r0; idx < r1; idx++ {
		pos[rows[rlo+idx]] = int32(idx)
	}
	// The stripe's rows as global row bounds, so applyUpdate can binary-search
	// the contiguous slice of each descendant's rows that lands here. gr1 < 0
	// marks the last stripe (no upper bound).
	gr0 := rows[rlo+r0]
	gr1 := int32(-1)
	if r1 < nr {
		gr1 = rows[rlo+r1]
	}
	for u := ss.updPtr[s]; u < ss.updPtr[s+1]; u++ {
		c.applyUpdate(ws, c0, P, w, ss.upds[u], r0, gr0, gr1)
	}
	// Restore the −1 sentinel for the next stripe before returning, so the
	// invariant survives across stripes, panels, and attempts.
	for idx := r0; idx < r1; idx++ {
		pos[rows[rlo+idx]] = -1
	}
	return true
}

// finishPanel runs panel s's dense diagonal-block factorization once every
// update stripe has landed. In the parallel schedule the worker that
// completes the last stripe calls it; the inputs it reads are complete and
// schedule-independent either way.
func (c *SupernodalCholesky) finishPanel(ws *snScratch, s int32, quasiDef bool, eps float64) bool {
	ss := c.ss
	c0 := int(ss.colPtr[s])
	w := int(ss.colPtr[s+1]) - c0
	nr := int(ss.rowPtr[s+1] - ss.rowPtr[s])
	P := c.px[ss.valPtr[s]:ss.valPtr[s+1]]
	return c.factorPanel(ws, P, w, nr, c0, quasiDef, eps)
}

// snLowerBound returns the first index in rows[lo:hi) whose value is ≥ x,
// assuming ascending order.
func snLowerBound(rows []int32, lo, hi int, x int32) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rows[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// applyUpdate subtracts one descendant's blocked outer-product contribution
// L_d[K,:]·D_d·L_d[I,:]ᵀ from target panel rows [r0, r1) — the stripe in
// flight — where I is the run of d's rows inside the target's columns and K
// is every row of d from the run on. gr0/gr1 are the stripe's bounds as
// global (permuted) rows, gr1 < 0 meaning unbounded; because a descendant's
// rows and the target's rows are both ascending, the descendant rows landing
// in the stripe form a contiguous range found by binary search, so a stripe
// pays only for its own rows, not a scan of the whole update.
func (c *SupernodalCholesky) applyUpdate(ws *snScratch, c0 int, P []float64, wS int, upd snUpdate, r0 int, gr0, gr1 int32) {
	ss := c.ss
	d := upd.d
	dc0 := int(ss.colPtr[d])
	wd := int(ss.colPtr[d+1]) - dc0
	lo, hi := int(upd.lo), int(upd.hi)
	rend := int(ss.rowPtr[d+1])
	nI := hi - lo
	nK := rend - lo
	base := lo - int(ss.rowPtr[d])
	pos := ws.pos
	rows := ss.rows
	// The run rows sit at local target rows < maxSupernodeWidth <
	// snStripeRows, so the triangular region belongs entirely to stripe 0.
	doTri := r0 == 0 && nK > 0
	// Rectangular region rows landing in the stripe: a contiguous range of
	// the descendant's ascending rows, found by binary search on the
	// stripe's global row bounds, then filtered for amalgamation padding
	// through the stripe-local pos map.
	kLo, kHi := lo+nI, rend
	if r0 > 0 {
		kLo = snLowerBound(rows, kLo, kHi, gr0)
	}
	if gr1 >= 0 {
		kHi = snLowerBound(rows, kLo, kHi, gr1)
	}
	rk, rp := ws.rk, ws.rp
	nb := 0
	for k := kLo; k < kHi; k++ {
		if pi := pos[rows[k]]; pi >= 0 {
			rk[nb] = int32(k - lo)
			rp[nb] = pi
			nb++
		}
	}
	if nb == 0 && !doTri {
		// Nothing of this update lands in the stripe; skip the U prescale.
		return
	}
	Pd := c.px[ss.valPtr[d]:ss.valPtr[d+1]]
	// U = L_d[I,:]·D_d, and the target panel columns of I.
	U := ws.ubuf[:nI*wd]
	dseg := c.d[dc0 : dc0+wd]
	ci := ws.ci[:nI]
	for ii := 0; ii < nI; ii++ {
		src := Pd[(base+ii)*wd : (base+ii+1)*wd]
		dst := U[ii*wd : ii*wd+wd]
		for q, v := range src {
			dst[q] = v * dseg[q]
		}
		ci[ii] = rows[lo+ii] - int32(c0)
	}
	if doTri {
		// Triangular region: rows inside the run see only the update columns
		// up to their own position.
		tri := nI
		if nK < tri {
			tri = nK
		}
		for ki := 0; ki < tri; ki++ {
			// Descendant rows past the run need not belong to the target
			// panel: relaxed amalgamation stores padding zeros, so a row of d
			// can sit outside rows(s) even though it is ≥ the run. Such rows
			// contribute exactly ±0 (every true nonzero contribution lands
			// inside rows(s) by the fill-path argument), so they are skipped,
			// not scattered — by the same −1 lookup that filters other
			// stripes' rows.
			pi := pos[rows[lo+ki]]
			if pi < 0 {
				continue
			}
			updateRow1(U, ci, Pd[(base+ki)*wd:(base+ki+1)*wd], P[int(pi)*wS:], wd, ki+1)
		}
	}
	// Every collected row sees all nI update columns, streamed through the
	// widest register-blocked kernel the batch allows — 4-row groups with a
	// per-width inner kernel, pairs and a straggler after. The batching is
	// purely structural (it depends on the padding pattern and the fixed
	// stripe boundaries, never on scheduling), so results stay bitwise
	// identical at any parallelism.
	kb := 0
	switch wd {
	case maxSupernodeWidth:
		for ; kb+3 < nb; kb += 4 {
			r0, r1 := base+int(rk[kb]), base+int(rk[kb+1])
			r2, r3 := base+int(rk[kb+2]), base+int(rk[kb+3])
			updateRow4W(U, ci,
				Pd[r0*wd:r0*wd+wd], Pd[r1*wd:r1*wd+wd],
				Pd[r2*wd:r2*wd+wd], Pd[r3*wd:r3*wd+wd],
				P[int(rp[kb])*wS:], P[int(rp[kb+1])*wS:],
				P[int(rp[kb+2])*wS:], P[int(rp[kb+3])*wS:], nI)
		}
	case 1, 2, 3:
		for ; kb+3 < nb; kb += 4 {
			r0, r1 := base+int(rk[kb]), base+int(rk[kb+1])
			r2, r3 := base+int(rk[kb+2]), base+int(rk[kb+3])
			updateRow4Narrow(U, ci,
				Pd[r0*wd:r0*wd+wd], Pd[r1*wd:r1*wd+wd],
				Pd[r2*wd:r2*wd+wd], Pd[r3*wd:r3*wd+wd],
				P[int(rp[kb])*wS:], P[int(rp[kb+1])*wS:],
				P[int(rp[kb+2])*wS:], P[int(rp[kb+3])*wS:], wd, nI)
		}
	default:
		for ; kb+3 < nb; kb += 4 {
			r0, r1 := base+int(rk[kb]), base+int(rk[kb+1])
			r2, r3 := base+int(rk[kb+2]), base+int(rk[kb+3])
			updateRow4G(U, ci,
				Pd[r0*wd:r0*wd+wd], Pd[r1*wd:r1*wd+wd],
				Pd[r2*wd:r2*wd+wd], Pd[r3*wd:r3*wd+wd],
				P[int(rp[kb])*wS:], P[int(rp[kb+1])*wS:],
				P[int(rp[kb+2])*wS:], P[int(rp[kb+3])*wS:], wd, nI)
		}
	}
	for ; kb+1 < nb; kb += 2 {
		r0, r1 := base+int(rk[kb]), base+int(rk[kb+1])
		updateRow2(U, ci,
			Pd[r0*wd:r0*wd+wd], Pd[r1*wd:r1*wd+wd],
			P[int(rp[kb])*wS:], P[int(rp[kb+1])*wS:], wd, nI)
	}
	if kb < nb {
		r0 := base + int(rk[kb])
		updateRow1(U, ci, Pd[r0*wd:r0*wd+wd], P[int(rp[kb])*wS:], wd, nI)
	}
}

// updateRow1 subtracts pk·U[ii,:]ᵀ from prow at the panel columns ci[ii] for
// ii < iiMax: the 1×2 register-blocked fallback for triangular rows, padding
// stragglers, and odd row counts.
func updateRow1(U []float64, ci []int32, pk, prow []float64, wd, iiMax int) {
	ii := 0
	for ; ii+1 < iiMax; ii += 2 {
		u0 := U[ii*wd : ii*wd+wd]
		u1 := U[(ii+1)*wd : (ii+2)*wd]
		var a0, a1, b0, b1 float64
		q := 0
		for ; q+1 < wd; q += 2 {
			p0, p1 := pk[q], pk[q+1]
			a0 += p0 * u0[q]
			a1 += p1 * u0[q+1]
			b0 += p0 * u1[q]
			b1 += p1 * u1[q+1]
		}
		if q < wd {
			p0 := pk[q]
			a0 += p0 * u0[q]
			b0 += p0 * u1[q]
		}
		prow[ci[ii]] -= a0 + a1
		prow[ci[ii+1]] -= b0 + b1
	}
	for ; ii < iiMax; ii++ {
		u0 := U[ii*wd : ii*wd+wd]
		var a0, a1 float64
		q := 0
		for ; q+1 < wd; q += 2 {
			a0 += pk[q] * u0[q]
			a1 += pk[q+1] * u0[q+1]
		}
		if q < wd {
			a0 += pk[q] * u0[q]
		}
		prow[ci[ii]] -= a0 + a1
	}
}

// updateRow2 is the 2×2 register-blocked kernel of the rectangular region:
// two descendant rows against two update columns per step, so every load
// feeds two multiply-adds and the eight accumulators keep independent
// dependency chains in flight.
func updateRow2(U []float64, ci []int32, pk0, pk1, prow0, prow1 []float64, wd, nI int) {
	ii := 0
	for ; ii+1 < nI; ii += 2 {
		u0 := U[ii*wd : ii*wd+wd]
		u1 := U[(ii+1)*wd : (ii+2)*wd]
		var s00a, s00b, s01a, s01b float64
		var s10a, s10b, s11a, s11b float64
		q := 0
		for ; q+1 < wd; q += 2 {
			p00, p01 := pk0[q], pk0[q+1]
			p10, p11 := pk1[q], pk1[q+1]
			u00, u01 := u0[q], u0[q+1]
			u10, u11 := u1[q], u1[q+1]
			s00a += p00 * u00
			s00b += p01 * u01
			s01a += p00 * u10
			s01b += p01 * u11
			s10a += p10 * u00
			s10b += p11 * u01
			s11a += p10 * u10
			s11b += p11 * u11
		}
		if q < wd {
			p0, p1 := pk0[q], pk1[q]
			u00, u10 := u0[q], u1[q]
			s00a += p0 * u00
			s01a += p0 * u10
			s10a += p1 * u00
			s11a += p1 * u10
		}
		c0, c1 := ci[ii], ci[ii+1]
		prow0[c0] -= s00a + s00b
		prow0[c1] -= s01a + s01b
		prow1[c0] -= s10a + s10b
		prow1[c1] -= s11a + s11b
	}
	if ii < nI {
		u0 := U[ii*wd : ii*wd+wd]
		var s0a, s0b, s1a, s1b float64
		q := 0
		for ; q+1 < wd; q += 2 {
			p00, p01 := pk0[q], pk0[q+1]
			p10, p11 := pk1[q], pk1[q+1]
			s0a += p00 * u0[q]
			s0b += p01 * u0[q+1]
			s1a += p10 * u0[q]
			s1b += p11 * u0[q+1]
		}
		if q < wd {
			s0a += pk0[q] * u0[q]
			s1a += pk1[q] * u0[q]
		}
		c0 := ci[ii]
		prow0[c0] -= s0a + s0b
		prow1[c0] -= s1a + s1b
	}
}

// updateRow4Narrow handles descendants of width ≤ 3 — the unmerged leaf
// supernodes of the elimination tree. The four descendant rows fit entirely
// in registers, hoisted out of the column loop, so the per-column work is
// just the loads of one U row, the multiply-adds, and the four scattered
// writes. Zero-padding the hoisted values to width 3 adds multiplications
// by exactly 0.0, which leave every sum's value unchanged (at most the
// sign of an exact zero, which no later product or sum can amplify).
func updateRow4Narrow(U []float64, ci []int32, k0, k1, k2, k3, prow0, prow1, prow2, prow3 []float64, wd, nI int) {
	var p00, p01, p02, p10, p11, p12 float64
	var p20, p21, p22, p30, p31, p32 float64
	p00, p10, p20, p30 = k0[0], k1[0], k2[0], k3[0]
	if wd > 1 {
		p01, p11, p21, p31 = k0[1], k1[1], k2[1], k3[1]
		if wd > 2 {
			p02, p12, p22, p32 = k0[2], k1[2], k2[2], k3[2]
		}
	}
	U = U[:nI*wd]
	switch wd {
	case 1:
		for ii := 0; ii < nI; ii++ {
			u0 := U[ii]
			c := ci[ii]
			prow0[c] -= p00 * u0
			prow1[c] -= p10 * u0
			prow2[c] -= p20 * u0
			prow3[c] -= p30 * u0
		}
	case 2:
		for ii := 0; ii < nI; ii++ {
			u0, u1 := U[2*ii], U[2*ii+1]
			c := ci[ii]
			prow0[c] -= p00*u0 + p01*u1
			prow1[c] -= p10*u0 + p11*u1
			prow2[c] -= p20*u0 + p21*u1
			prow3[c] -= p30*u0 + p31*u1
		}
	default:
		for ii := 0; ii < nI; ii++ {
			u0, u1, u2 := U[3*ii], U[3*ii+1], U[3*ii+2]
			c := ci[ii]
			prow0[c] -= p00*u0 + p01*u1 + p02*u2
			prow1[c] -= p10*u0 + p11*u1 + p12*u2
			prow2[c] -= p20*u0 + p21*u1 + p22*u2
			prow3[c] -= p30*u0 + p31*u1 + p32*u2
		}
	}
}

// updateRow4G is the 4×2 kernel for mid-width descendants (4 ≤ wd <
// maxSupernodeWidth): the same shape as updateRow4W with a runtime trip
// count, re-slicing every row to exactly wd so the bounds checks hoist out
// of the inner loop.
func updateRow4G(U []float64, ci []int32, k0, k1, k2, k3, prow0, prow1, prow2, prow3 []float64, wd, nI int) {
	k0 = k0[:wd:wd]
	k1 = k1[:wd:wd]
	k2 = k2[:wd:wd]
	k3 = k3[:wd:wd]
	ii := 0
	for ; ii+1 < nI; ii += 2 {
		u0 := U[ii*wd : ii*wd+wd]
		u1 := U[(ii+1)*wd : (ii+2)*wd]
		var s00, s01, s10, s11 float64
		var s20, s21, s30, s31 float64
		for q, u0q := range u0 {
			u1q := u1[q]
			p := k0[q]
			s00 += p * u0q
			s01 += p * u1q
			p = k1[q]
			s10 += p * u0q
			s11 += p * u1q
			p = k2[q]
			s20 += p * u0q
			s21 += p * u1q
			p = k3[q]
			s30 += p * u0q
			s31 += p * u1q
		}
		c0, c1 := ci[ii], ci[ii+1]
		prow0[c0] -= s00
		prow0[c1] -= s01
		prow1[c0] -= s10
		prow1[c1] -= s11
		prow2[c0] -= s20
		prow2[c1] -= s21
		prow3[c0] -= s30
		prow3[c1] -= s31
	}
	if ii < nI {
		u0 := U[ii*wd : ii*wd+wd]
		var s0, s1, s2, s3 float64
		for q, u0q := range u0 {
			s0 += k0[q] * u0q
			s1 += k1[q] * u0q
			s2 += k2[q] * u0q
			s3 += k3[q] * u0q
		}
		c0 := ci[ii]
		prow0[c0] -= s0
		prow1[c0] -= s1
		prow2[c0] -= s2
		prow3[c0] -= s3
	}
}

// updateRow4W is the 4×2 kernel specialized to full-width descendants
// (wd == maxSupernodeWidth): four descendant rows against two update
// columns, six loads feeding sixteen multiply-adds per step, with one
// sequential accumulator chain per output so every output's summation
// order is fixed. The fixed-size array views give the compiler constant
// trip counts, eliminating every inner-loop bounds check — and
// amalgamation drives most panels to full width, so the bulk of the
// factorization's flops run through this kernel.
func updateRow4W(U []float64, ci []int32, k0, k1, k2, k3, prow0, prow1, prow2, prow3 []float64, nI int) {
	const wd = maxSupernodeWidth
	pk0 := (*[wd]float64)(k0)
	pk1 := (*[wd]float64)(k1)
	pk2 := (*[wd]float64)(k2)
	pk3 := (*[wd]float64)(k3)
	ii := 0
	for ; ii+1 < nI; ii += 2 {
		u0 := (*[wd]float64)(U[ii*wd : ii*wd+wd])
		u1 := (*[wd]float64)(U[(ii+1)*wd : (ii+2)*wd])
		var s00, s01, s10, s11 float64
		var s20, s21, s30, s31 float64
		for q := 0; q < wd; q++ {
			u0q, u1q := u0[q], u1[q]
			p := pk0[q]
			s00 += p * u0q
			s01 += p * u1q
			p = pk1[q]
			s10 += p * u0q
			s11 += p * u1q
			p = pk2[q]
			s20 += p * u0q
			s21 += p * u1q
			p = pk3[q]
			s30 += p * u0q
			s31 += p * u1q
		}
		c0, c1 := ci[ii], ci[ii+1]
		prow0[c0] -= s00
		prow0[c1] -= s01
		prow1[c0] -= s10
		prow1[c1] -= s11
		prow2[c0] -= s20
		prow2[c1] -= s21
		prow3[c0] -= s30
		prow3[c1] -= s31
	}
	if ii < nI {
		u0 := (*[wd]float64)(U[ii*wd : ii*wd+wd])
		var s0, s1, s2, s3 float64
		for q := 0; q < wd; q++ {
			u0q := u0[q]
			s0 += pk0[q] * u0q
			s1 += pk1[q] * u0q
			s2 += pk2[q] * u0q
			s3 += pk3[q] * u0q
		}
		c0 := ci[ii]
		prow0[c0] -= s0
		prow1[c0] -= s1
		prow2[c0] -= s2
		prow3[c0] -= s3
	}
}

// factorPanel runs the dense right-looking LDLᵀ of the w×w diagonal block
// and scales the nr−w rows below it, with the same pivot policy as the
// simplicial kernel: NaN always fails; non-quasi-definite mode fails on a
// non-positive pivot (triggering the caller's shift escalation);
// quasi-definite mode floors |pivot| < eps at ±eps preserving sign.
func (c *SupernodalCholesky) factorPanel(ws *snScratch, P []float64, w, nr, c0 int, quasiDef bool, eps float64) bool {
	col := ws.col
	for cc := 0; cc < w; cc++ {
		dk := P[cc*w+cc]
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
		c.d[c0+cc] = dk
		inv := 1 / dk
		// Keep the unscaled pivot column of the diagonal block: the trailing
		// update needs v_q = d·l_q, and the rows are about to be scaled.
		for q := cc + 1; q < w; q++ {
			col[q] = P[q*w+cc]
		}
		for r := cc + 1; r < nr; r++ {
			P[r*w+cc] *= inv
		}
		for r := cc + 1; r < nr; r++ {
			l := P[r*w+cc]
			if l == 0 {
				continue
			}
			hi := w
			if r < w {
				hi = r + 1
			}
			prow := P[r*w : r*w+hi]
			for q := cc + 1; q < hi; q++ {
				prow[q] -= l * col[q]
			}
		}
	}
	return true
}
