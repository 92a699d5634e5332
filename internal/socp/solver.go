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
	sp, scales := equilibrateSparse(p, g)
	s := &state{ctx: ctx, p: sp, opt: opt.withDefaults()}
	// The warm start arrives in the original coordinates; map it into the
	// equilibrated ones (nil on dimension mismatch or non-finite entries,
	// which silently selects the cold start).
	s.warm = scales.scaleWarm(s.opt.WarmStart, len(p.C))
	sol, err := s.run()
	if sol != nil {
		sol.LinearSolves = s.linearSolves
	}
	// Return the borrowed factorization pipeline to the pattern cache. The
	// sparse view is per-solve, so nothing references it after this.
	if pc := s.opt.Cache; pc != nil && s.sv != nil {
		pc.release(s.sv.ne)
		s.sv.ne = nil
	}
	scales.unscale(sol)
	return sol, err
}

// state carries the iterates and workspace of one solve.
type state struct {
	ctx context.Context
	p   *Problem
	opt Options

	n, m int // variables, cone dim

	// warm is the caller's warm start mapped into the equilibrated
	// coordinates; nil selects the cold least-squares starting point.
	warm *WarmStart
	// warmActive records that the iterate was installed from the warm start
	// without the interior-margin shift: the shift is deferred until the
	// run loop decides it actually has to take a step, so a warm point that
	// already satisfies the stopping tolerances terminates at iteration 0
	// without ever factorizing.
	warmActive bool

	x     linalg.Vector
	s, z  linalg.Vector
	e     linalg.Vector // cone identity
	hnorm float64
	cnorm float64

	// sv is the sparse view of the (equilibrated) problem's constraint
	// matrix, built by initWorkspace.
	sv *sparseView
	// factorBackend is the resolved sparse factorization backend
	// (FactorSparse or FactorSupernodal, never FactorAuto).
	factorBackend Factorization
	ws            workspace

	// scaling is the NT scaling of the current iterate, updated in place at
	// every iteration; kkt is the one factorized KKT system, whose storage
	// the factorization pipeline owns.
	scaling cone.Scaling
	kkt     kktFactor

	// linearSolves counts the factored solves (solveOnce calls) so far,
	// reported as Solution.LinearSolves.
	linearSolves int
}

// workspace holds every buffer the solver reuses across iterations, so that
// after initWorkspace and the first NT scaling an iteration allocates
// nothing.
type workspace struct {
	// kktFactor.solve: iterative-refinement scratch.
	r1, r2       linalg.Vector // n, m residuals
	w2z          linalg.Vector // m
	curX, curZ   linalg.Vector // running refined iterate
	bestX, bestZ linalg.Vector // best iterate seen
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
}

// initWorkspace builds the sparse view and allocates the per-solve buffers
// once; the iteration loop reuses them instead of calling Clone each pass.
// The factorization pipeline owns its own pattern-sized buffers.
func (st *state) initWorkspace() {
	n, m := st.n, st.m
	ws := &st.ws
	st.sv = newSparseView(st.p)
	st.factorBackend = ResolveFactorization(st.opt.Factorization, n)
	if nd := len(st.sv.split); nd > 0 {
		ws.full = linalg.NewVector(n + nd)
		ws.fsol = linalg.NewVector(n + nd)
	}
	ws.r1 = linalg.NewVector(n)
	ws.r2 = linalg.NewVector(m)
	ws.w2z = linalg.NewVector(m)
	ws.curX, ws.curZ = linalg.NewVector(n), linalg.NewVector(m)
	ws.bestX, ws.bestZ = linalg.NewVector(n), linalg.NewVector(m)
	ws.corX, ws.corZ = linalg.NewVector(n), linalg.NewVector(m)
	ws.t = linalg.NewVector(m)
	ws.rhs = linalg.NewVector(n)
	ws.rx = linalg.NewVector(n)
	ws.rz = linalg.NewVector(m)
	ws.gz = linalg.NewVector(n)
	ws.gx = linalg.NewVector(m)
	ws.nbx = linalg.NewVector(n)
	ws.nbz = linalg.NewVector(m)
	ws.nwu = linalg.NewVector(m)
	ws.nt = linalg.NewVector(m)
	ws.nds = linalg.NewVector(m)
	ws.uaff = linalg.NewVector(m)
	ws.wds = linalg.NewVector(m)
	ws.wdz = linalg.NewVector(m)
	ws.corr = linalg.NewVector(m)
	ws.dc = linalg.NewVector(m)
	ws.ns = linalg.NewVector(m)
	ws.nz = linalg.NewVector(m)
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
	ne := st.sv.normalEq(st.opt.Cache, st.factorBackend, st.opt.FactorWorkers)
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

// refineTol is the accuracy at which kktFactor.solve stops refining: a KKT
// residual of at most refineTol·(1 + ‖b‖∞) is as good as the working
// precision delivers. It is ECOS's LINSYSACC (Domahidi, Chu & Boyd, 2013).
const refineTol = 1e-14

// maxRefineChecks caps the KKT residual checks of one kktFactor.solve.
const maxRefineChecks = 4

// solve computes (x, z) for right-hand sides (bx, bz) with full-space
// iterative refinement, which keeps the dual residual accurate even when the
// NT scaling is nearly singular at the end of the solve. Every factored
// solve is followed by a check of the KKT residual. Refinement stops at the
// first check that meets refineTol·(1 + ‖b‖∞), that fails to improve on the
// best residual so far, or that is the maxRefineChecks-th, and returns the
// best iterate seen; a correction that would not be checked is never
// computed. The returned vectors are workspace-owned and valid only until
// the next solve call; callers that keep them must clone.
func (f *kktFactor) solve(bx, bz linalg.Vector) (dx, dz linalg.Vector) {
	ws := &f.st.ws
	cx, cz := ws.curX, ws.curZ
	f.solveOnce(bx, bz, cx, cz)
	// solveOnce left G·cx in ws.t, so the first check forms no product.
	gx := ws.t
	tol := refineTol * (1 + max(linalg.NormInf(bx), linalg.NormInf(bz)))
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
	ws := &st.ws
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
	ws := &st.ws
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
	st.n = p.NumVars()
	st.m = p.Dims.Dim()
	st.e = linalg.NewVector(st.m)
	p.Dims.Identity(st.e)
	st.hnorm = linalg.Norm2(p.H)
	st.cnorm = linalg.Norm2(p.C)
	st.initWorkspace()

	if err := st.initPoint(); err != nil {
		return st.failed(err)
	}

	nu := float64(p.Dims.Degree())
	sol := &Solution{Status: StatusMaxIterations}
	best := &Solution{Status: StatusMaxIterations}
	best.X = linalg.NewVector(st.n)
	best.S = linalg.NewVector(st.m)
	best.Z = linalg.NewVector(st.m)
	bestScore := math.Inf(1)
	ws := &st.ws

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
		st.sv.g.MulVecTAdd(rx, 1, st.z)
		rz := ws.rz // rz = Gx + s − h
		st.sv.g.MulVec(rz, st.x)
		linalg.Add(rz, rz, st.s)
		rz.AddScaled(-1, p.H)

		pcost := linalg.Dot(p.C, st.x)
		hz := linalg.Dot(p.H, st.z)
		dcost := -hz
		gap := linalg.Dot(st.s, st.z)
		relgap := gap / math.Max(1, math.Abs(pcost))
		pres := linalg.Norm2(rz) / math.Max(1, st.hnorm)
		dres := linalg.Norm2(rx) / math.Max(1, st.cnorm)

		sol.X, sol.S, sol.Z = st.x, st.s, st.z
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
				scaleCert(st.z, -1/hz)
				sol.Status = StatusPrimalInfeasible
				return sol, nil
			}
		}
		if pcost < 0 {
			gx := ws.gx
			st.sv.g.MulVec(gx, st.x)
			linalg.Add(gx, gx, st.s)
			if linalg.Norm2(gx)/(-pcost) <= st.opt.FeasTol {
				scaleCert(st.x, -1/pcost)
				scaleCert(st.s, -1/pcost)
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

		if iter == st.opt.MaxIter {
			return reportBest(sol, best, acceptReduced(best)), nil
		}

		// An unshifted warm point got its free convergence check above; past
		// it, shift s and z to the interior-margin floor before the first NT
		// scaling, which is singular on the cone boundary a converged
		// neighbor iterate sits on. The shift moves s and z, so the
		// residuals and gap that feed the step are recomputed.
		if st.warmActive && iter == 0 {
			st.shiftWarm(st.s)
			st.shiftWarm(st.z)
			rx.CopyFrom(p.C)
			st.sv.g.MulVecTAdd(rx, 1, st.z)
			st.sv.g.MulVec(rz, st.x)
			linalg.Add(rz, rz, st.s)
			rz.AddScaled(-1, p.H)
			gap = linalg.Dot(st.s, st.z)
		}

		// NT scaling and KKT factorization.
		w := &st.scaling
		if err := w.Update(p.Dims, st.s, st.z); err != nil {
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
			p.Dims.StepToBoundary(st.s, dsa),
			p.Dims.StepToBoundary(st.z, dza)))
		gapAff := affGap(st.s, dsa, st.z, dza, alphaAff)
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
		dc.AddScaled(sigma*mu, st.e)
		p.Dims.Div(u, lambda, dc)
		dx, dz, ds := st.newton(f, w, rx, rz, u)

		alpha := math.Min(1, st.opt.StepFrac*math.Min(
			p.Dims.StepToBoundary(st.s, ds),
			p.Dims.StepToBoundary(st.z, dz)))

		// Take the step, backing off if rounding pushed an iterate onto the
		// boundary. ns/nz double-buffer against st.s/st.z: on acceptance the
		// slices swap roles, so each try rebuilds the candidate from the
		// untouched current iterate.
		ns, nz := ws.ns, ws.nz
		for tries := 0; ; tries++ {
			ns.CopyFrom(st.s)
			ns.AddScaled(alpha, ds)
			nz.CopyFrom(st.z)
			nz.AddScaled(alpha, dz)
			if p.Dims.Interior(ns) && p.Dims.Interior(nz) {
				ws.ns, ws.nz = st.s, st.z
				st.s, st.z = ns, nz
				st.x.AddScaled(alpha, dx)
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
	ws := &st.ws
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

// warmPoint moves the scaled warm start into the iterate slots. The primal
// slack is recomputed against this problem's h (s = h − Gx) whenever the
// result stays strictly interior, so a sweep step that only moved a bound
// starts with a zero primal residual. When the raw pair (s, z) is strictly
// interior it is installed unshifted and warmActive is set: the run loop
// gives it one free convergence check and only shifts to the margin floor
// if it actually has to iterate. Otherwise the pair is shifted here, and a
// pair that still fails the interior check (e.g. non-finite) reports false,
// leaving the cold start to run.
func (st *state) warmPoint() bool {
	w := st.warm
	if w == nil {
		return false
	}
	s := linalg.NewVector(st.m)
	st.sv.g.MulVec(s, w.X)
	s.Scale(-1)
	linalg.Add(s, s, st.p.H)
	if st.p.Dims.Interior(s) {
		w.S = s
	}
	if st.p.Dims.Interior(w.S) && st.p.Dims.Interior(w.Z) {
		st.x, st.s, st.z = w.X, w.S, w.Z
		st.warmActive = true
		return true
	}
	st.shiftWarm(w.S)
	st.shiftWarm(w.Z)
	if !st.p.Dims.Interior(w.S) || !st.p.Dims.Interior(w.Z) {
		return false
	}
	st.x, st.s, st.z = w.X, w.S, w.Z
	return true
}

// shiftWarm raises v's interior margin to the warm floor by moving along
// the cone identity, scaled to the iterate's own magnitude.
func (st *state) shiftWarm(v linalg.Vector) {
	floor := warmMarginFrac * (1 + linalg.NormInf(v))
	if th := st.p.Dims.InteriorMargin(v); th < floor {
		v.AddScaled(floor-th, st.e)
	}
}

// coldPoint computes the CVXOPT-style least-squares starting point, shifted
// into the interior of the cone.
func (st *state) coldPoint() error {
	p := st.p
	f, err := st.factor(nil) // W = I
	if err != nil {
		return fmt.Errorf("socp: initial factorization failed: %w", err)
	}
	// Primal: minimize ‖Gx − h‖; s = h − Gx, shifted inward.
	zero := linalg.NewVector(st.n)
	x, ztilde := f.solve(zero, p.H)
	st.x = x.Clone() // the solve results are workspace-backed
	st.s = ztilde.Clone()
	st.s.Scale(-1) // s = h − Gx = −z̃
	if th := p.Dims.InteriorMargin(st.s); th <= 0 {
		st.s.AddScaled(1-th, st.e)
	}
	// Dual: minimize ‖z‖ s.t. Gᵀz = −c; shifted inward.
	negc := p.C.Clone()
	negc.Scale(-1)
	_, z := f.solve(negc, linalg.NewVector(st.m))
	st.z = z.Clone()
	if th := p.Dims.InteriorMargin(st.z); th <= 0 {
		st.z.AddScaled(1-th, st.e)
	}
	return nil
}

func (st *state) failed(err error) (*Solution, error) {
	return &Solution{Status: StatusNumericalError}, err
}
