package socp

import (
	"context"
	"fmt"
	"math"

	"repro/internal/cone"
	"repro/internal/faultinject"
	"repro/internal/linalg"
)

// Solve minimizes cᵀx subject to Gx + s = h, s ∈ K using an
// infeasible-start Mehrotra predictor-corrector interior-point method with
// Nesterov-Todd scaling.
func Solve(p *Problem, opt Options) (*Solution, error) {
	return SolveContext(context.Background(), p, opt)
}

// SolveContext is Solve with cancellation: the context is checked once per
// interior-point iteration, and a canceled context or expired deadline makes
// the solve return promptly with StatusCanceled (diagnostics of the last
// iterate filled in, no error). The iterates themselves are unaffected by
// the context — a solve that runs to completion is bit-identical whether or
// not a (non-canceled) context was supplied.
func SolveContext(ctx context.Context, p *Problem, opt Options) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// The solver runs on CSR only: a dense G is converted once, to the
	// pattern and values the Builder emits for the same rows.
	g := p.GSparse
	if g == nil {
		g = linalg.NewSparseFromDense(p.G)
	}
	opt = opt.withDefaults()
	sp := opt.Cache.acquire(g, p.Dims, ResolveFactorization(opt.Factorization, len(p.C)))
	sol, err := sp.solve(ctx, p, g, opt)
	// Only here: a solve that panics drops its space, which may hold a
	// factorization cut off midway.
	opt.Cache.release(sp)
	return sol, err
}

// space is everything one solve reads and writes except the Solution it
// returns: the equilibrated problem and its scales, the sparse view, the
// factorization pipeline, the NT scaling, every iteration buffer and the
// solve's state. All of it is sized by G's pattern, the cone dims and the
// factorization backend alone, so it is the unit the pattern cache pools;
// an uncached solve builds one and drops it. Every buffer is rewritten
// before it is read, so a space carries no value from one solve into the
// next, and a solve on a reused space is bit-identical to one on a fresh
// space.
type space struct {
	// prob is the equilibrated problem: c, h and G's values rewritten per
	// solve, G's pattern shared with the pattern entry (or, uncached, with
	// the caller's matrix). eq holds the scales that map it back.
	prob Problem
	eq   eqScales

	sv *sparseView // the view of prob.GSparse
	// ne is the factorization pipeline, built on the space's first
	// factorization (see pipeline), so a solve that ends before its first
	// factorization runs no symbolic analysis.
	ne      *neFactor
	backend Factorization // resolved: FactorSparse or FactorSupernodal

	scaling cone.Scaling // NT scaling of the current iterate
	ws      workspace
	st      state // the solve in progress; zero while the space is idle

	// pc and entry are the cache and pattern entry that pool the space,
	// both nil for an uncached space; bytes is the footprint the cache
	// counts while the space is idle.
	pc    *PatternCache
	entry *patternEntry
	bytes int
}

// newSpace allocates a space for the pattern of pat, a constraint matrix of
// the cone dims (only pat's shape, RowPtr and ColIdx are read, and the
// space's G shares the last two), factored on the resolved backend.
func newSpace(pat *linalg.SparseMatrix, dims cone.Dims, backend Factorization) *space {
	n, m := pat.Cols, dims.Dim()
	g := &linalg.SparseMatrix{
		Rows: pat.Rows, Cols: n,
		RowPtr: pat.RowPtr, ColIdx: pat.ColIdx,
		Val: make([]float64, len(pat.ColIdx)),
	}
	sp := &space{
		prob:    Problem{C: linalg.NewVector(n), GSparse: g, H: linalg.NewVector(m), Dims: dims},
		eq:      eqScales{rowScale: linalg.NewVector(m)},
		sv:      newSparseView(g, dims),
		backend: backend,
	}
	sp.ws.init(n, m, len(sp.sv.split))
	return sp
}

// solve runs one solve of p, whose constraint matrix in CSR form is g, on
// the space. The returned Solution's vectors are the solve's own; the space
// keeps no reference to p, opt or the Solution afterwards.
func (sp *space) solve(ctx context.Context, p *Problem, g *linalg.SparseMatrix, opt Options) (*Solution, error) {
	sp.eq.equilibrate(&sp.prob, p, g)
	sp.sv.load()
	st := sp.start(ctx, opt)
	// The warm start arrives in the original coordinates; map it into the
	// equilibrated ones (false on dimension mismatch or non-finite entries,
	// which silently selects the cold start).
	st.warm = sp.eq.scaleWarm(opt.WarmStart, sp.ws.x, sp.ws.s, sp.ws.z)
	sol, err := st.run()
	if sol != nil {
		sol.LinearSolves = st.linearSolves
		// The iterates live in the space; the caller gets copies.
		sol.X, sol.S, sol.Z = detach(sol.X), detach(sol.S), detach(sol.Z)
	}
	sp.eq.unscale(sol)
	sp.st = state{}
	return sol, err
}

// start resets the space's state for a solve of its equilibrated problem
// with the given options (defaults applied) and returns it.
func (sp *space) start(ctx context.Context, opt Options) *state {
	sp.st = state{
		ctx: ctx, p: &sp.prob, opt: opt,
		n: len(sp.prob.C), m: sp.prob.Dims.Dim(),
		sp: sp, sv: sp.sv, ws: &sp.ws,
	}
	return &sp.st
}

// detach returns a copy of a vector that lives in a space, nil for nil.
func detach(v linalg.Vector) linalg.Vector {
	if v == nil {
		return nil
	}
	return v.Clone()
}

// pipeline returns the space's factorization pipeline, building it on the
// space's first factorization: on the pattern entry's shared symbolic
// analysis when the space is pooled, on a local one otherwise. For a pooled
// space it counts a cache hit when the pipeline was already there and a
// miss when it had to be built.
func (sp *space) pipeline(workers int) *neFactor {
	if sp.ne == nil {
		if sp.entry == nil {
			sp.ne = newNEFactor(sp.sv, nil, sp.backend, workers)
			return sp.ne
		}
		sp.pc.misses.Add(1)
		sp.ne = sp.entry.build(sp.sv, sp.backend, workers)
		return sp.ne
	}
	sp.pc.hits.Add(1)
	// The worker bound is a per-solve setting, not part of the pooled
	// identity; refresh it (scheduling only — results never change).
	if sc, ok := sp.ne.chol.(*linalg.SupernodalCholesky); ok {
		sc.SetParallelism(workers)
	}
	return sp.ne
}

// footprint estimates the bytes the space holds: its vectors, the sparse
// view, the factorization pipeline once built, and the NT scaling (d, λ, v
// and v⁻¹, at most three values per cone row).
func (sp *space) footprint() int {
	p := &sp.prob
	b := 8*(len(p.C)+len(p.GSparse.Val)+len(p.H)+len(sp.eq.rowScale)+sp.ws.floats+3*len(p.H)) + sp.sv.footprint()
	if sp.ne != nil {
		b += sp.ne.bytes
	}
	return b
}

// state carries the iterates and workspace of one solve. It lives in its
// space, which start resets for every solve.
type state struct {
	ctx context.Context
	p   *Problem
	opt Options

	n, m int // variables, cone dim

	// warm records that ws.x, ws.s and ws.z hold the caller's warm start
	// mapped into the equilibrated coordinates; false selects the cold
	// least-squares starting point.
	warm bool
	// warmActive records that the iterate was installed from the warm start
	// without the interior-margin shift: the shift is deferred until the
	// run loop decides it actually has to take a step, so a warm point that
	// already satisfies the stopping tolerances terminates at iteration 0
	// without ever factorizing.
	warmActive bool

	hnorm float64
	cnorm float64

	// sp is the space the solve runs on; sv and ws are its sparse view and
	// buffers, and ne is its factorization pipeline once the solve has
	// factored.
	sp *space
	sv *sparseView
	ws *workspace
	ne *neFactor

	// kkt is the one factorized KKT system, whose storage the factorization
	// pipeline owns.
	kkt kktFactor

	// linearSolves counts the factored solves (solveOnce calls) so far,
	// reported as Solution.LinearSolves.
	linearSolves int

	// forceTol is kktFactor.solve's forcing tolerance (see refineForcing).
	// It is 0 until the run loop has scored an iterate, so the starting
	// point's solves refine to refineTol.
	forceTol float64
}

// workspace holds every vector a solve reuses across iterations, the
// iterates included, so that after the first NT scaling an iteration
// allocates nothing. All of them are cut from one allocation.
type workspace struct {
	// Iterates and the cone identity: x is n long, the others m.
	x, s, z, e linalg.Vector
	// topX, topS and topZ hold the best iterate of the solve.
	topX, topS, topZ linalg.Vector

	// kktFactor.solve: iterative-refinement scratch.
	r1, r2       linalg.Vector // n, m residuals
	w2z          linalg.Vector // m
	curX, curZ   linalg.Vector // running refined iterate
	bestX, bestZ linalg.Vector // best refined iterate of one solve call
	corX, corZ   linalg.Vector // correction step

	// solveOnce scratch; t ends holding G·dx of the last solveOnce.
	t, rhs     linalg.Vector // m, n
	full, fsol linalg.Vector // n+nd, nil when H is factored alone

	// Main-loop scratch.
	rx, rz             linalg.Vector // residuals
	gz, gx             linalg.Vector // Farkas certificate scratch (n, m)
	nbx, nbz, nwu      linalg.Vector // newton right-hand sides
	nt, nds            linalg.Vector // newton ds recovery
	uaff               linalg.Vector // m, scaled complementarity term
	wds, wdz, corr, dc linalg.Vector // m, Mehrotra corrector
	ns, nz             linalg.Vector // m, step back-off double buffers

	floats int // values in all the vectors above
}

// init allocates the buffers of a problem with n variables, cone dimension
// m and nd rows split off H.
func (ws *workspace) init(n, m, nd int) {
	full := 0
	if nd > 0 {
		full = n + nd
	}
	ws.floats = 10*n + 24*m + 2*full // the vectors cut below
	buf := make([]float64, ws.floats)
	cut := func(k int) linalg.Vector {
		v := linalg.Vector(buf[:k:k])
		buf = buf[k:]
		return v
	}
	ws.x, ws.s, ws.z, ws.e = cut(n), cut(m), cut(m), cut(m)
	ws.topX, ws.topS, ws.topZ = cut(n), cut(m), cut(m)
	if nd > 0 {
		ws.full, ws.fsol = cut(full), cut(full)
	}
	ws.r1, ws.r2, ws.w2z = cut(n), cut(m), cut(m)
	ws.curX, ws.curZ = cut(n), cut(m)
	ws.bestX, ws.bestZ = cut(n), cut(m)
	ws.corX, ws.corZ = cut(n), cut(m)
	ws.t, ws.rhs = cut(m), cut(n)
	ws.rx, ws.rz = cut(n), cut(m)
	ws.gz, ws.gx = cut(n), cut(m)
	ws.nbx, ws.nbz, ws.nwu = cut(n), cut(m), cut(m)
	ws.nt, ws.nds = cut(m), cut(m)
	ws.uaff = cut(m)
	ws.wds, ws.wdz, ws.corr, ws.dc = cut(m), cut(m), cut(m), cut(m)
	ws.ns, ws.nz = cut(m), cut(m)
}

// kktFactor is a factorized KKT system for a fixed NT scaling. It solves
//
//	[ 0   Gᵀ ] [x]   [bx]
//	[ G  −W² ] [z] = [bz]
//
// via the normal equations H = Gᵀ W⁻² G, or an LDLᵀ factorization of the
// quasi-definite KKT matrix [[H_s, Bᵀ], [B, −I]] when long rows are split
// off H (see neFactor). Its storage is owned by the state's factorization
// pipeline; the state holds the one live factor.
type kktFactor struct {
	st *state
	w  *cone.Scaling // nil means W = I

	// schol is the sparse LDLᵀ (simplicial or supernodal) of the
	// regularized hs, which is the sparse H or the sparse KKT matrix; hs
	// itself is unregularized, so refinement sweeps the shift out.
	schol linalg.SparseLDLT
	hs    *linalg.SparseMatrix
}

// factor rewrites the values of the fixed W⁻¹G pattern for the scaling w
// and refactorizes the KKT system.
func (st *state) factor(w *cone.Scaling) (*kktFactor, error) {
	st.sv.fillScaled(w)
	st.kkt.st, st.kkt.w = st, w
	return st.factorSparse(&st.kkt)
}

// factorSparse runs the sparse pipeline: refill H = (W⁻¹G)ᵀ(W⁻¹G) on its
// fixed pattern and refactorize numerically against the symbolic structure
// computed on first use. Without split rows it factorizes H directly with a
// static diagonal shift; otherwise it factorizes the quasi-definite KKT
// matrix with the ±reg diagonal floor.
func (st *state) factorSparse(f *kktFactor) (*kktFactor, error) {
	ne := st.pipeline()
	ne.ata.Compute(st.sv.gs)
	h := ne.ata.Result
	reg := st.opt.KKTReg * (1 + ne.hMax(st.sv.gs))
	if ne.kkt == nil {
		if err := ne.chol.Factorize(h, reg, reg); err != nil {
			return nil, err
		}
		f.schol, f.hs = ne.chol, h
		return f, nil
	}
	ne.fillKKT(st.sv.gs, reg)
	if err := ne.chol.FactorizeQuasiDef(ne.kkt, reg); err != nil {
		return nil, err
	}
	// The factor holds the regularized matrix; SolveRefined refines against
	// the unregularized one, as the plain path refines against the unshifted
	// H, so the refinement sweeps the regularization out. At the end of a
	// solve, where W⁻¹ spans many orders of magnitude, the dual residual
	// depends on it (EXPERIMENTS.md §P10).
	ne.unshift()
	f.schol, f.hs = ne.chol, ne.kkt
	return f, nil
}

// pipeline returns the solve's factorization pipeline, taking it from the
// space on the solve's first factorization.
func (st *state) pipeline() *neFactor {
	if st.ne == nil {
		st.ne = st.sp.pipeline(st.opt.FactorWorkers)
	}
	return st.ne
}

// refineTol is the accuracy at which kktFactor.solve stops refining: a KKT
// residual of at most refineTol·(1 + ‖b‖∞) is as good as the working
// precision delivers. It is ECOS's LINSYSACC (Domahidi, Chu & Boyd, 2013).
const refineTol = 1e-14

// maxRefineChecks caps the KKT residual checks of one kktFactor.solve.
const maxRefineChecks = 4

// refineForcing is the inexact-Newton forcing factor η: an iteration whose
// best iterate so far scores max(pres, dres, relgap) = σ refines its KKT
// solves only to η·min(1, σ)·(1 + ‖b‖∞), or to refineTol when that is
// looser. A Newton direction needs no more accuracy than the residuals it
// reduces (Dembo, Eisenstat & Steihaug, 1982), so early iterations take one
// factored solve, and as σ falls to the stopping tolerances the rule
// tightens back to refineTol by itself.
const refineForcing = 1e-4

// solve computes (x, z) for right-hand sides (bx, bz) with full-space
// iterative refinement, which keeps the dual residual accurate even when the
// NT scaling is nearly singular at the end of the solve. Every factored
// solve is followed by a check of the KKT residual. Refinement stops at the
// first check that meets max(refineTol, forceTol)·(1 + ‖b‖∞), that fails
// to improve on the best residual so far, or that is the maxRefineChecks-th,
// and returns the best iterate seen; a correction that would not be checked
// is never computed. The returned vectors are workspace-owned and valid only
// until the next solve call; callers that keep them must clone.
func (f *kktFactor) solve(bx, bz linalg.Vector) (dx, dz linalg.Vector) {
	ws := f.st.ws
	cx, cz := ws.curX, ws.curZ
	f.solveOnce(bx, bz, cx, cz)
	// solveOnce left G·cx in ws.t, so the first check forms no product.
	gx := ws.t
	tol := max(refineTol, f.st.forceTol) * (1 + max(linalg.NormInf(bx), linalg.NormInf(bz)))
	bestRes := math.Inf(1)
	for check := 1; ; check++ {
		f.residual(bx, bz, cx, cz, gx)
		gx = nil
		res := max(linalg.NormInf(ws.r1), linalg.NormInf(ws.r2))
		if res < bestRes {
			bestRes = res
			ws.bestX.CopyFrom(cx)
			ws.bestZ.CopyFrom(cz)
		} else {
			break // refinement stopped converging
		}
		if res <= tol || check == maxRefineChecks {
			break
		}
		f.solveOnce(ws.r1, ws.r2, ws.corX, ws.corZ)
		cx.AddScaled(1, ws.corX)
		cz.AddScaled(1, ws.corZ)
	}
	return ws.bestX, ws.bestZ
}

// residual computes the residual of the 2x2 block KKT system at (x, z) into
// the workspace vectors r1 and r2. gx, when non-nil, holds G·x already, and
// the second block is then formed without a product.
func (f *kktFactor) residual(bx, bz, x, z, gx linalg.Vector) {
	st := f.st
	ws := st.ws
	r1 := ws.r1 // bx − Gᵀz
	r1.CopyFrom(bx)
	st.sv.g.MulVecTAdd(r1, -1, z)
	w2z := z // W²z, with W = I when f.w is nil
	if f.w != nil {
		w2z = ws.w2z
		f.w.ApplySq(w2z, z)
	}
	r2 := ws.r2 // bz − (Gx − W²z)
	if gx == nil {
		st.sv.g.ResidualAdd(r2, bz, x, w2z)
		return
	}
	for i := range r2 {
		r2[i] = (bz[i] - gx[i]) + w2z[i]
	}
}

// solveOnce performs the factored solve without refinement, writing the
// result into the caller-provided dx, dz buffers. It leaves G·dx in ws.t,
// which kktFactor.solve's first residual check reads.
func (f *kktFactor) solveOnce(bx, bz, dx, dz linalg.Vector) {
	st := f.st
	ws := st.ws
	st.linearSolves++
	// t = W⁻² bz.
	t := bz
	if f.w != nil {
		t = ws.t
		f.w.ApplyInvSq(t, bz)
	}
	// rhs = bx + Gᵀ W⁻² bz.
	rhs := ws.rhs
	rhs.CopyFrom(bx)
	st.sv.g.MulVecTAdd(rhs, 1, t)
	if faultinject.Enabled() {
		// solveOnce cannot fail, so only NaN, panic and stall rules act here.
		_ = faultinject.HitData(faultinject.SiteKKTRHS, rhs)
	}
	if ws.full == nil {
		f.schol.SolveRefined(f.hs, rhs, dx)
	} else {
		// [rhs; 0]: the split rows' right-hand side is zero.
		n := st.n
		full := ws.full
		copy(full[:n], rhs)
		clear(full[n:])
		sol := ws.fsol
		f.schol.SolveRefined(f.hs, full, sol)
		copy(dx, sol[:n])
	}
	// dz = W⁻² (G dx − bz), with G dx kept in ws.t, which is dead once rhs
	// is built.
	gdx := ws.t
	st.sv.g.MulVec(gdx, dx)
	for i := range dz {
		dz[i] = gdx[i] - bz[i]
	}
	if f.w != nil {
		f.w.ApplyInvSq(dz, dz)
	}
}

func (st *state) run() (*Solution, error) {
	p := st.p
	ws := st.ws
	p.Dims.Identity(ws.e)
	st.hnorm = linalg.Norm2(p.H)
	st.cnorm = linalg.Norm2(p.C)

	if err := st.initPoint(); err != nil {
		return st.failed(err)
	}

	nu := float64(p.Dims.Degree())
	sol := &Solution{Status: StatusMaxIterations}
	best := &Solution{Status: StatusMaxIterations}
	best.X, best.S, best.Z = ws.topX, ws.topS, ws.topZ
	bestScore := math.Inf(1)

	for iter := 0; iter <= st.opt.MaxIter; iter++ {
		// Cancellation is observed once per iteration: deadlines and Ctrl-C
		// surface as a prompt StatusCanceled (never as a misleading
		// StatusMaxIterations), and a completed solve is unaffected.
		if st.ctx != nil && st.ctx.Err() != nil {
			sol.Status = StatusCanceled
			return sol, nil
		}
		if faultinject.Enabled() {
			if ferr := faultinject.Hit(faultinject.SiteIPMIteration); ferr != nil {
				sol.Status = StatusNumericalError
				return sol, nil
			}
		}
		// Residuals.
		rx := ws.rx // rx = c + Gᵀz
		rx.CopyFrom(p.C)
		st.sv.g.MulVecTAdd(rx, 1, ws.z)
		rz := ws.rz // rz = Gx + s − h
		st.sv.g.MulVec(rz, ws.x)
		linalg.Add(rz, rz, ws.s)
		rz.AddScaled(-1, p.H)

		pcost := linalg.Dot(p.C, ws.x)
		hz := linalg.Dot(p.H, ws.z)
		dcost := -hz
		gap := linalg.Dot(ws.s, ws.z)
		relgap := gap / math.Max(1, math.Abs(pcost))
		pres := linalg.Norm2(rz) / math.Max(1, st.hnorm)
		dres := linalg.Norm2(rx) / math.Max(1, st.cnorm)

		sol.X, sol.S, sol.Z = ws.x, ws.s, ws.z
		sol.PrimalObj, sol.DualObj = pcost, dcost
		sol.Gap, sol.RelGap, sol.PrimalRes, sol.DualRes = gap, relgap, pres, dres
		sol.Iterations = iter

		if st.opt.Trace {
			fmt.Fprintf(st.opt.TraceOut, "iter %2d: pcost=%+.6e dcost=%+.6e gap=%.3e pres=%.3e dres=%.3e\n",
				iter, pcost, dcost, gap, pres, dres)
		}

		if pres <= st.opt.FeasTol && dres <= st.opt.FeasTol &&
			(gap <= st.opt.AbsTol || relgap <= st.opt.RelTol) {
			sol.Status = StatusOptimal
			return sol, nil
		}

		// Farkas certificates of infeasibility.
		if hz < 0 {
			// ‖Gᵀz‖ relative to the certificate value.
			gz := ws.gz
			gz.CopyFrom(rx)
			gz.AddScaled(-1, p.C)
			if linalg.Norm2(gz)/(-hz) <= st.opt.FeasTol {
				scaleCert(ws.z, -1/hz)
				sol.Status = StatusPrimalInfeasible
				return sol, nil
			}
		}
		if pcost < 0 {
			gx := ws.gx
			st.sv.g.MulVec(gx, ws.x)
			linalg.Add(gx, gx, ws.s)
			if linalg.Norm2(gx)/(-pcost) <= st.opt.FeasTol {
				scaleCert(ws.x, -1/pcost)
				scaleCert(ws.s, -1/pcost)
				sol.Status = StatusDualInfeasible
				return sol, nil
			}
		}
		// Track the best iterate seen; near machine precision the iterates
		// can deteriorate after the gap bottoms out, and the best point is
		// then the one to report.
		score := math.Max(math.Max(pres, dres), relgap)
		if score < bestScore {
			bestScore = score
			bX, bS, bZ := best.X, best.S, best.Z
			*best = *sol
			best.X, best.S, best.Z = bX, bS, bZ
			best.X.CopyFrom(sol.X)
			best.S.CopyFrom(sol.S)
			best.Z.CopyFrom(sol.Z)
		} else if bestScore < 1e-4 && score > 1e4*bestScore {
			// Endgame breakdown after convergence effectively finished:
			// return the best iterate instead of the deteriorated one.
			return reportBest(sol, best, acceptReduced(best)), nil
		}
		st.forceTol = refineForcing * min(1, bestScore)

		if iter == st.opt.MaxIter {
			return reportBest(sol, best, acceptReduced(best)), nil
		}

		// An unshifted warm point got its free convergence check above; past
		// it, shift s and z to the interior-margin floor before the first NT
		// scaling, which is singular on the cone boundary a converged
		// neighbor iterate sits on. The shift moves s and z, so the
		// residuals and gap that feed the step are recomputed.
		if st.warmActive && iter == 0 {
			st.shiftWarm(ws.s)
			st.shiftWarm(ws.z)
			rx.CopyFrom(p.C)
			st.sv.g.MulVecTAdd(rx, 1, ws.z)
			st.sv.g.MulVec(rz, ws.x)
			linalg.Add(rz, rz, ws.s)
			rz.AddScaled(-1, p.H)
			gap = linalg.Dot(ws.s, ws.z)
		}

		// NT scaling and KKT factorization.
		w := &st.sp.scaling
		if err := w.Update(p.Dims, ws.s, ws.z); err != nil {
			return breakdown(sol, best, bestScore), nil
		}
		lambda := w.Lambda()
		f, err := st.factor(w)
		if err != nil {
			return breakdown(sol, best, bestScore), nil
		}

		mu := gap / nu

		// Affine (predictor) direction: dc = −λ∘λ, so u = λ\dc = −λ.
		u := ws.uaff
		u.CopyFrom(lambda)
		u.Scale(-1)
		_, dza, dsa := st.newton(f, w, rx, rz, u)

		alphaAff := math.Min(1, math.Min(
			p.Dims.StepToBoundary(ws.s, dsa),
			p.Dims.StepToBoundary(ws.z, dza)))
		gapAff := affGap(ws.s, dsa, ws.z, dza, alphaAff)
		sigma := math.Pow(math.Max(0, gapAff/gap), 3)
		if sigma > 1 {
			sigma = 1
		}

		// Combined (corrector) direction:
		// dc = σµe − λ∘λ − (W⁻¹ds_a)∘(W dz_a).
		wds := ws.wds
		w.ApplyInv(wds, dsa)
		wdz := ws.wdz
		w.Apply(wdz, dza)
		corr := ws.corr
		p.Dims.Product(corr, wds, wdz)
		dc := ws.dc
		p.Dims.Product(dc, lambda, lambda)
		dc.Scale(-1)
		dc.AddScaled(-1, corr)
		dc.AddScaled(sigma*mu, ws.e)
		p.Dims.Div(u, lambda, dc)
		dx, dz, ds := st.newton(f, w, rx, rz, u)

		alpha := math.Min(1, st.opt.StepFrac*math.Min(
			p.Dims.StepToBoundary(ws.s, ds),
			p.Dims.StepToBoundary(ws.z, dz)))

		// Take the step, backing off if rounding pushed an iterate onto the
		// boundary. ns/nz double-buffer against s/z: on acceptance the
		// slices swap roles, so each try rebuilds the candidate from the
		// untouched current iterate.
		ns, nz := ws.ns, ws.nz
		for tries := 0; ; tries++ {
			ns.CopyFrom(ws.s)
			ns.AddScaled(alpha, ds)
			nz.CopyFrom(ws.z)
			nz.AddScaled(alpha, dz)
			if p.Dims.Interior(ns) && p.Dims.Interior(nz) {
				ws.s, ws.ns = ns, ws.s
				ws.z, ws.nz = nz, ws.z
				ws.x.AddScaled(alpha, dx)
				break
			}
			if tries >= 30 {
				return breakdown(sol, best, bestScore), nil
			}
			alpha *= 0.5
		}
	}
	return sol, nil
}

// newton solves one Newton system for the given residuals and scaled
// complementarity term u = λ\dc, returning (dx, dz, ds). The returned
// vectors are workspace-owned; they stay valid until the next newton or
// kktFactor.solve call.
func (st *state) newton(f *kktFactor, w *cone.Scaling, rx, rz, u linalg.Vector) (dx, dz, ds linalg.Vector) {
	ws := st.ws
	bx := ws.nbx
	bx.CopyFrom(rx)
	bx.Scale(-1)
	// bz = −rz − W u.
	wu := ws.nwu
	w.Apply(wu, u)
	bz := ws.nbz
	bz.CopyFrom(rz)
	bz.Scale(-1)
	bz.AddScaled(-1, wu)
	dx, dz = f.solve(bx, bz)
	// ds = W (u − W dz).
	t := ws.nt
	w.Apply(t, dz)
	linalg.Sub(t, u, t)
	ds = ws.nds
	w.Apply(ds, t)
	return dx, dz, ds
}

// acceptReduced decides the status of a solve that could not reach the full
// tolerances: if the best iterate meets the reduced tolerances (1e-4 on
// feasibility, 5e-5 on the relative gap — the same convention ECOS uses for
// its "close to optimal" acceptance), it is still reported optimal; the
// achieved residuals remain available in the Solution for callers that need
// stricter guarantees.
func acceptReduced(best *Solution) Status {
	const feasInacc, gapInacc = 1e-4, 5e-5
	if best.X != nil && best.PrimalRes <= feasInacc && best.DualRes <= feasInacc &&
		(best.Gap <= gapInacc || best.RelGap <= gapInacc) {
		return StatusOptimal
	}
	return StatusMaxIterations
}

// breakdown ends a solve whose iteration broke down numerically: the NT
// scaling, the factorization or the step back-off failed. Like the
// max-iteration exit it reports the best iterate when that meets the
// reduced tolerances; otherwise sol, the current iterate, carries
// StatusNumericalError, which the core recovery ladder retries. bestScore
// is +Inf while no iterate has been recorded in best.
func breakdown(sol, best *Solution, bestScore float64) *Solution {
	if !math.IsInf(bestScore, 1) && acceptReduced(best) == StatusOptimal {
		return reportBest(sol, best, StatusOptimal)
	}
	sol.Status = StatusNumericalError
	return sol
}

// reportBest ends a solve on its best iterate: sol takes best's point and
// diagnostics and the given status, but keeps its own Iterations, the
// number of passes the solve ran.
func reportBest(sol, best *Solution, status Status) *Solution {
	passes := sol.Iterations
	*sol = *best
	sol.Iterations, sol.Status = passes, status
	return sol
}

// affGap returns (s+αds)ᵀ(z+αdz).
func affGap(s, ds, z, dz linalg.Vector, alpha float64) float64 {
	var g float64
	for i := range s {
		g += (s[i] + alpha*ds[i]) * (z[i] + alpha*dz[i])
	}
	return g
}

func scaleCert(v linalg.Vector, a float64) {
	for i := range v {
		v[i] *= a
	}
}

// warmMarginFrac is the relative interior-margin floor warm iterates are
// shifted to. A converged neighbor's s and z sit essentially on the cone
// boundary, where the NT scaling is singular; shifting along the cone
// identity to a small but safe margin (Mehrotra-style centering of the
// initial point) keeps the first scaling well conditioned while staying
// close enough to the neighbor's solution that the predictor-corrector
// needs only a handful of iterations to re-converge.
const warmMarginFrac = 1e-3

// initPoint installs the caller's warm start when one is usable, otherwise
// computes the CVXOPT-style least-squares starting point, shifted into the
// interior of the cone.
func (st *state) initPoint() error {
	if st.warmPoint() {
		return nil
	}
	return st.coldPoint()
}

// warmPoint starts from the scaled warm start in ws.x, ws.s and ws.z. The
// primal slack is recomputed against this problem's h (s = h − Gx) whenever
// the result stays strictly interior, so a sweep step that only moved a
// bound starts with a zero primal residual. When the pair (s, z) is
// strictly interior it is kept unshifted and warmActive is set: the run
// loop gives it one free convergence check and only shifts to the margin
// floor if it actually has to iterate. Otherwise the pair is shifted here,
// and a pair that still fails the interior check (e.g. non-finite) reports
// false, leaving the cold start to run.
func (st *state) warmPoint() bool {
	if !st.warm {
		return false
	}
	ws := st.ws
	s := ws.ns // step scratch, free until the first step
	st.sv.g.MulVec(s, ws.x)
	s.Scale(-1)
	linalg.Add(s, s, st.p.H)
	if st.p.Dims.Interior(s) {
		ws.s, ws.ns = s, ws.s
	}
	if st.p.Dims.Interior(ws.s) && st.p.Dims.Interior(ws.z) {
		st.warmActive = true
		return true
	}
	st.shiftWarm(ws.s)
	st.shiftWarm(ws.z)
	return st.p.Dims.Interior(ws.s) && st.p.Dims.Interior(ws.z)
}

// shiftWarm raises v's interior margin to the warm floor by moving along
// the cone identity, scaled to the iterate's own magnitude.
func (st *state) shiftWarm(v linalg.Vector) {
	floor := warmMarginFrac * (1 + linalg.NormInf(v))
	if th := st.p.Dims.InteriorMargin(v); th < floor {
		v.AddScaled(floor-th, st.ws.e)
	}
}

// coldPoint computes the CVXOPT-style least-squares starting point, shifted
// into the interior of the cone.
func (st *state) coldPoint() error {
	p := st.p
	ws := st.ws
	f, err := st.factor(nil) // W = I
	if err != nil {
		return fmt.Errorf("socp: initial factorization failed: %w", err)
	}
	// Primal: minimize ‖Gx − h‖; s = h − Gx, shifted inward. The
	// right-hand sides live in main-loop scratch, free until the loop runs.
	zero := ws.rx
	zero.Zero()
	x, ztilde := f.solve(zero, p.H)
	ws.x.CopyFrom(x) // the solve results are scratch
	ws.s.CopyFrom(ztilde)
	ws.s.Scale(-1) // s = h − Gx = −z̃
	if th := p.Dims.InteriorMargin(ws.s); th <= 0 {
		ws.s.AddScaled(1-th, ws.e)
	}
	// Dual: minimize ‖z‖ s.t. Gᵀz = −c; shifted inward.
	negc := ws.rx
	negc.CopyFrom(p.C)
	negc.Scale(-1)
	zeroM := ws.rz
	zeroM.Zero()
	_, z := f.solve(negc, zeroM)
	ws.z.CopyFrom(z)
	if th := p.Dims.InteriorMargin(ws.z); th <= 0 {
		ws.z.AddScaled(1-th, ws.e)
	}
	return nil
}

func (st *state) failed(err error) (*Solution, error) {
	return &Solution{Status: StatusNumericalError}, err
}
