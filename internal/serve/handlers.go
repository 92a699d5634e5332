package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/taskgraph"
)

// routes wires the endpoint table.
func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /debug/vars", s.handleVars)
}

// deadline resolves a request's effective deadline: the body's deadline_ms
// when positive, else the Request-Timeout header (seconds, fractions
// allowed), both clamped by the server maximum, which also applies when
// the request names nothing.
func (s *Server) deadline(r *http.Request, bodyMS int64) time.Duration {
	d := s.cfg.MaxDeadline
	switch {
	case bodyMS > 0:
		if rd := time.Duration(bodyMS) * time.Millisecond; rd < d {
			d = rd
		}
	default:
		if hdr := r.Header.Get("Request-Timeout"); hdr != "" {
			if secs, err := strconv.ParseFloat(hdr, 64); err == nil && secs > 0 {
				if rd := time.Duration(secs * float64(time.Second)); rd < d {
					d = rd
				}
			}
		}
	}
	return d
}

// decode reads a bounded JSON body into dst.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any) error {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	return dec.Decode(dst)
}

// admit runs the admission path shared by the solving endpoints: reject
// when draining, shed when the queue is full, otherwise enqueue and fire
// the enqueue fault site. A non-nil return means the response was already
// written.
func (s *Server) admit(w http.ResponseWriter, j *job) error {
	if err := s.pool.submit(j); err != nil {
		if err == errDraining {
			s.vars.drainRejects.Add(1)
			writeError(w, http.StatusServiceUnavailable, ErrorDetail{
				Code:    CodeDraining,
				Message: "server is draining; no new work is admitted",
			})
			return err
		}
		s.vars.shed.Add(1)
		retry := s.retryAfter()
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeError(w, http.StatusTooManyRequests, ErrorDetail{
			Code:          CodeQueueFull,
			Message:       "admission queue is full; retry after the advertised backoff",
			RetryAfterSec: retry,
		})
		return err
	}
	s.vars.accepted.Add(1)
	if err := hitEnqueue(); err != nil {
		s.vars.internal.Add(1)
		writeError(w, http.StatusInternalServerError, ErrorDetail{
			Code:    CodeInternal,
			Message: err.Error(),
		})
		return err
	}
	return nil
}

// solveOutcome is the worker-side result of one /v1/solve job, read by the
// handler after the job's done channel closes.
type solveOutcome struct {
	res      *core.Result
	err      error
	panicErr error
	injected error
	elapsed  time.Duration
}

// run executes the solve on a worker goroutine. Panics are isolated here:
// a panicking solve fails only this request.
func (o *solveOutcome) run(s *Server, ctx context.Context, cfg *taskgraph.Config, skipVerification bool) {
	defer func() {
		if r := recover(); r != nil {
			o.panicErr = recoverPanic(r)
		}
	}()
	if err := hitJob(); err != nil {
		o.injected = err
		return
	}
	// Checking forceCtx directly (not only via the AfterFunc relay into ctx,
	// which runs asynchronously) makes a drain force-cancel synchronous for
	// jobs that have not started solving: once the drain bound expires, no
	// queued job burns a worker.
	if ctx.Err() != nil || s.forceCtx.Err() != nil {
		o.res = &core.Result{Status: core.StatusCanceled}
		return
	}
	o.res, o.elapsed, o.err = s.Solve(ctx, cfg, skipVerification)
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	if err := s.decode(w, r, &req); err != nil {
		s.badRequest(w, fmt.Errorf("decoding request: %w", err))
		return
	}
	cfg, err := taskgraph.Parse(req.Config)
	if err != nil {
		s.badRequest(w, err)
		return
	}
	pattern := patternString(cfg.StructureHash())
	rl := requestLog(r.Context())
	if rl != nil {
		rl.pattern = pattern
	}
	jctx, cancel := context.WithTimeout(r.Context(), s.deadline(r, req.DeadlineMS))
	defer cancel()
	// A drain that runs out of patience force-cancels in-flight work by
	// canceling forceCtx; AfterFunc relays that into this job's context.
	stop := context.AfterFunc(s.forceCtx, cancel)
	defer stop()

	out := &solveOutcome{}
	j := &job{ctx: jctx, done: make(chan struct{})}
	j.fn = func(ctx context.Context) { out.run(s, ctx, cfg, req.SkipVerification) }
	if s.admit(w, j) != nil {
		return
	}
	<-j.done
	if rl != nil && out.res != nil && out.res.Report != nil {
		rl.rung = out.res.Report.FinalBackend
	}
	s.writeSolve(w, pattern, out)
}

// writeSolve maps a solve outcome onto the HTTP surface; pattern is the
// configuration's rendered structure hash.
func (s *Server) writeSolve(w http.ResponseWriter, pattern string, out *solveOutcome) {
	switch {
	case out.panicErr != nil:
		s.vars.panics.Add(1)
		writeError(w, http.StatusInternalServerError, ErrorDetail{
			Code:    CodePanic,
			Message: "solve panicked; the failure was isolated to this request",
		})
	case out.injected != nil:
		s.vars.internal.Add(1)
		writeError(w, http.StatusInternalServerError, ErrorDetail{
			Code:    CodeInternal,
			Message: out.injected.Error(),
		})
	case out.res == nil:
		// The solver rejected the model before producing a status (e.g. a
		// multi-rate configuration): the request, not the server, is at
		// fault.
		s.badRequest(w, out.err)
	default:
		rep := reportJSON(out.res.Report)
		switch out.res.Status {
		case core.StatusOptimal, core.StatusInfeasible:
			if out.res.Status == core.StatusOptimal {
				s.vars.optimal.Add(1)
			} else {
				s.vars.infeasible.Add(1)
			}
			s.observe(out.elapsed)
			writeJSON(w, http.StatusOK, &SolveResponse{
				Status:              statusString(out.res.Status),
				Mapping:             out.res.Mapping,
				ContinuousObjective: out.res.ContinuousObjective,
				Iterations:          out.res.SolverIterations,
				Report:              rep,
				Pattern:             pattern,
				ElapsedMS:           durationMS(out.elapsed),
			})
		case core.StatusCanceled:
			s.vars.deadline.Add(1)
			writeError(w, http.StatusGatewayTimeout, ErrorDetail{
				Code:    CodeDeadline,
				Message: "deadline expired (or client went away) before the solve converged",
				Report:  rep,
			})
		default:
			s.vars.solverErrors.Add(1)
			msg := "solver failed on every recovery-ladder rung"
			if out.err != nil {
				msg = out.err.Error()
			}
			writeError(w, http.StatusInternalServerError, ErrorDetail{
				Code:    CodeSolverError,
				Message: msg,
				Report:  rep,
			})
		}
	}
}

// sweepOutcome is the worker-side result of one /v1/sweep job.
type sweepOutcome struct {
	points   []core.TradeoffPoint
	err      error
	canceled bool
	panicErr error
	injected error
	elapsed  time.Duration
}

func (o *sweepOutcome) run(s *Server, ctx context.Context, cfg *taskgraph.Config, buffers []string, caps []int) {
	defer func() {
		if r := recover(); r != nil {
			o.panicErr = recoverPanic(r)
		}
	}()
	start := time.Now()
	if err := hitJob(); err != nil {
		o.injected = err
		return
	}
	if ctx.Err() != nil || s.forceCtx.Err() != nil {
		o.canceled = true
		return
	}
	o.points, o.err = s.Sweep(ctx, cfg, buffers, caps)
	o.canceled = ctx.Err() != nil
	o.elapsed = time.Since(start)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := s.decode(w, r, &req); err != nil {
		s.badRequest(w, fmt.Errorf("decoding request: %w", err))
		return
	}
	cfg, err := taskgraph.Parse(req.Config)
	if err != nil {
		s.badRequest(w, err)
		return
	}
	if len(req.Caps) == 0 {
		s.badRequest(w, fmt.Errorf("sweep request has no caps"))
		return
	}
	pattern := patternString(cfg.StructureHash())
	if rl := requestLog(r.Context()); rl != nil {
		rl.pattern = pattern
	}
	jctx, cancel := context.WithTimeout(r.Context(), s.deadline(r, req.DeadlineMS))
	defer cancel()
	stop := context.AfterFunc(s.forceCtx, cancel)
	defer stop()

	out := &sweepOutcome{}
	j := &job{ctx: jctx, done: make(chan struct{})}
	j.fn = func(ctx context.Context) { out.run(s, ctx, cfg, req.Buffers, req.Caps) }
	if s.admit(w, j) != nil {
		return
	}
	<-j.done
	s.writeSweep(w, pattern, req.Caps, out)
}

// writeSweep maps a sweep outcome onto the HTTP surface; partial results
// always travel with the 504.
func (s *Server) writeSweep(w http.ResponseWriter, pattern string, caps []int, out *sweepOutcome) {
	switch {
	case out.panicErr != nil:
		s.vars.panics.Add(1)
		writeError(w, http.StatusInternalServerError, ErrorDetail{
			Code:    CodePanic,
			Message: "sweep panicked; the failure was isolated to this request",
		})
		return
	case out.injected != nil:
		s.vars.internal.Add(1)
		writeError(w, http.StatusInternalServerError, ErrorDetail{
			Code:    CodeInternal,
			Message: out.injected.Error(),
		})
		return
	case out.points == nil && out.err != nil && !out.canceled:
		// SweepBufferCaps validated the request and refused it outright.
		s.badRequest(w, out.err)
		return
	}
	resp := &SweepResponse{
		Points:    make([]SweepPoint, len(caps)),
		Pattern:   pattern,
		ElapsedMS: durationMS(out.elapsed),
	}
	for i, c := range caps {
		pt := SweepPoint{Cap: c, Status: "skipped"}
		if i < len(out.points) && out.points[i].Result != nil {
			res := out.points[i].Result
			pt.Status = statusString(res.Status)
			pt.Mapping = res.Mapping
			pt.ContinuousObjective = res.ContinuousObjective
			pt.Iterations = res.SolverIterations
			if res.Status != core.StatusCanceled {
				resp.Completed++
			}
		}
		resp.Points[i] = pt
	}
	switch {
	case out.canceled:
		s.vars.deadline.Add(1)
		writeError(w, http.StatusGatewayTimeout, ErrorDetail{
			Code:    CodeDeadline,
			Message: fmt.Sprintf("deadline expired with %d/%d points solved; partial results attached", resp.Completed, len(caps)),
			Partial: resp,
		})
	case out.err != nil:
		s.vars.solverErrors.Add(1)
		writeError(w, http.StatusInternalServerError, ErrorDetail{
			Code:    CodeSolverError,
			Message: out.err.Error(),
			Partial: resp,
		})
	default:
		s.vars.sweeps.Add(1)
		s.observe(out.elapsed)
		writeJSON(w, http.StatusOK, resp)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.Ready() {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
		return
	}
	writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
}

func (s *Server) handleVars(w http.ResponseWriter, _ *http.Request) {
	queued, running := s.pool.stats()
	hits, misses := s.cache.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"uptimeSec": time.Since(s.start).Seconds(),
		"ready":     s.Ready(),
		"requests": map[string]int64{
			"accepted":      s.vars.accepted.Load(),
			"shed":          s.vars.shed.Load(),
			"drainRejects":  s.vars.drainRejects.Load(),
			"badRequests":   s.vars.badRequests.Load(),
			"deadline504":   s.vars.deadline.Load(),
			"panics":        s.vars.panics.Load(),
			"internal":      s.vars.internal.Load(),
			"solverErrors":  s.vars.solverErrors.Load(),
			"solvedOptimal": s.vars.optimal.Load(),
			"infeasible":    s.vars.infeasible.Load(),
			"sweeps":        s.vars.sweeps.Load(),
		},
		"queue": map[string]int64{
			"workers": int64(s.cfg.Workers),
			"depth":   int64(s.cfg.QueueDepth),
			"queued":  queued,
			"running": running,
		},
		"latencyMs": map[string]float64{
			"p50":   durationMS(s.lat.quantile(0.50)),
			"p95":   durationMS(s.lat.quantile(0.95)),
			"count": float64(s.lat.count()),
		},
		"cache": map[string]int64{
			"hits":   hits,
			"misses": misses,
		},
	})
}

// badRequest writes a 400 with the client-side failure.
func (s *Server) badRequest(w http.ResponseWriter, err error) {
	s.vars.badRequests.Add(1)
	writeError(w, http.StatusBadRequest, ErrorDetail{
		Code:    CodeInvalidRequest,
		Message: err.Error(),
	})
}

// writeError writes a structured error body.
func writeError(w http.ResponseWriter, status int, det ErrorDetail) {
	writeJSON(w, status, &ErrorResponse{Error: det})
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors past WriteHeader cannot be reported to the client;
	// the types marshaled here cannot fail.
	_ = json.NewEncoder(w).Encode(v)
}

// durationMS renders a duration in (fractional) milliseconds.
func durationMS(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
