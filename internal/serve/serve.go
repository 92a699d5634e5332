// Package serve is the solver daemon behind cmd/bbserve: a fault-tolerant
// HTTP/JSON front end over the budget/buffer solver in internal/core,
// built for the workload the ROADMAP's north star describes — many clients
// repeatedly solving same-topology instances under latency budgets.
//
// The robustness layer, in the order a request meets it:
//
//   - Admission control: a bounded worker pool behind a fixed-depth queue.
//     Overload is shed at the door with 429 and a Retry-After derived from
//     the moving p95 solve latency — never buffered unboundedly.
//   - Deadlines: every request runs under a context derived from its
//     deadline_ms field (or Request-Timeout header), clamped by the server
//     maximum. Expiry surfaces as a structured 504 carrying the recovery
//     ladder's report and any partial sweep results, through the same
//     StatusCanceled plumbing the CLI tools use.
//   - Failure isolation and recovery: panics are contained to the request
//     that caused them; numerical breakdown runs the recovery ladder from
//     the server's own options on every request, and every attempt is
//     reported in the response. No routing state is kept per topology.
//   - Graceful drain: SIGTERM flips /readyz to 503, stops admissions,
//     lets in-flight solves finish up to a drain bound, then cancels
//     stragglers through their contexts.
//   - Shared-pattern fast path: all solves share one socp.PatternCache,
//     keyed by the sparsity pattern of the solver's constraint matrix,
//     so a request whose matrix carries a pattern seen before skips the
//     symbolic analysis and reuses an idle solve space: the factorization
//     pipeline and every other buffer of the solve.
//     taskgraph.StructureHash only labels responses and log lines (their
//     pattern field); nothing is keyed or stored by it.
//
// Every failure path is reachable deterministically through
// internal/faultinject sites; nothing in the tests depends on timing.
package serve

import (
	"context"
	"log/slog"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/socp"
	"repro/internal/taskgraph"
)

// latencyWindow is the moving-latency sample count behind Retry-After and
// the /debug/vars quantiles.
const latencyWindow = 256

// Config parameterizes a Server. The zero value selects sensible defaults
// throughout.
type Config struct {
	// Workers bounds concurrently running solves; ≤ 0 selects GOMAXPROCS.
	Workers int
	// QueueDepth bounds requests waiting beyond the running ones; ≤ 0
	// selects 2×Workers. Admission control rejects beyond it.
	QueueDepth int
	// MaxDeadline clamps every request's deadline and applies when a
	// request names none; ≤ 0 selects 60s.
	MaxDeadline time.Duration
	// MaxBodyBytes bounds request bodies; ≤ 0 selects 32 MiB.
	MaxBodyBytes int64
	// Solve is the base solver configuration applied to every request
	// (factorization backend, tolerances, sweep parallelism). The pattern
	// cache field is overridden by the server's shared cache.
	Solve core.Options
	// Logger receives one structured line per completed request (route,
	// status, latency, queue pressure, graph pattern, ladder rung). Nil
	// disables request logging.
	Logger *slog.Logger
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 60 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	return c
}

// Server is the daemon state. Create with New; serve via Handler; shut
// down via Drain.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	handler http.Handler
	log     *slog.Logger
	pool    *pool
	cache   *socp.PatternCache
	lat     *latency
	start   time.Time

	// forceCtx is canceled to force-cancel every in-flight job context
	// when a drain deadline expires.
	forceCtx    context.Context
	forceCancel context.CancelFunc

	// notReady flips once drain begins; /readyz and admission key off it.
	notReady atomic.Bool

	vars counters
}

// counters are the /debug/vars tallies.
type counters struct {
	accepted     atomic.Int64 // admitted into the queue
	shed         atomic.Int64 // 429 queue-full rejections
	drainRejects atomic.Int64 // 503 rejections while draining
	deadline     atomic.Int64 // 504 responses
	panics       atomic.Int64 // isolated request panics
	internal     atomic.Int64 // injected/internal 500s
	solverErrors atomic.Int64 // ladder exhaustion / verification failures
	badRequests  atomic.Int64 // 400s
	optimal      atomic.Int64
	infeasible   atomic.Int64
	sweeps       atomic.Int64
}

// New builds a Server and starts its worker pool. The caller owns the
// lifecycle: serve s.Handler() on any net/http server and call Drain to
// shut down.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		pool:  newPool(cfg.Workers, cfg.QueueDepth),
		cache: socp.NewPatternCache(),
		lat:   newLatency(latencyWindow),
		start: time.Now(),
	}
	s.log = cfg.Logger
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	s.forceCtx, s.forceCancel = context.WithCancel(context.Background())
	s.mux = http.NewServeMux()
	s.routes()
	s.handler = s.logRequests(s.mux)
	return s
}

// Handler returns the daemon's HTTP handler: the route table wrapped in
// the per-request structured-logging middleware.
func (s *Server) Handler() http.Handler { return s.handler }

// Ready reports whether the server is admitting work (false once drain
// begins); /readyz renders it.
func (s *Server) Ready() bool { return !s.notReady.Load() }

// BeginDrain synchronously stops admissions and flips /readyz to 503
// without waiting for in-flight work. Drain calls it; it is exported so a
// signal handler can make the readiness flip atomic with the signal while
// deciding the drain bound separately.
func (s *Server) BeginDrain() {
	s.notReady.Store(true)
	s.pool.beginDrain()
}

// Drain gracefully shuts the server down: admissions stop, /readyz turns
// 503, and every accepted request is allowed to finish. If ctx expires
// first, the in-flight solves are canceled through their contexts (they
// surface 504s to their clients) and Drain still waits for them to unwind
// before returning ctx's error. A nil return means every request finished
// on its own. Drain must be called at most once.
func (s *Server) Drain(ctx context.Context) error {
	s.notReady.Store(true)
	return s.pool.drain(ctx, s.forceCancel)
}

// Solve runs one configuration through the shared pattern cache and the
// recovery ladder, always from the server's own options. It is the
// programmatic equivalent of POST /v1/solve minus HTTP and admission (the
// handler layers those); the middle result is the solve's wall time, which
// the response reports as elapsedMs.
func (s *Server) Solve(ctx context.Context, cfg *taskgraph.Config, skipVerification bool) (*core.Result, time.Duration, error) {
	opt := s.cfg.Solve
	opt.SkipVerification = opt.SkipVerification || skipVerification
	opt.Solver.Cache = s.cache
	start := time.Now()
	res, err := core.Solve(ctx, cfg, opt)
	return res, time.Since(start), err
}

// Sweep runs a buffer-cap sweep through the shared pattern cache, so its
// points share cache entries with /v1/solve requests of the same pattern.
func (s *Server) Sweep(ctx context.Context, cfg *taskgraph.Config, buffers []string, caps []int) ([]core.TradeoffPoint, error) {
	opt := s.cfg.Solve
	opt.Solver.Cache = s.cache
	return core.SweepBufferCaps(ctx, cfg, buffers, caps, opt)
}

// observe records a completed solve's latency for Retry-After estimation.
// Only definitive outcomes count: a canceled or shed request would drag
// the p95 toward the deadline instead of the solve cost.
func (s *Server) observe(d time.Duration) { s.lat.observe(d) }

// retryAfter estimates the backoff advertised on shed requests.
func (s *Server) retryAfter() int {
	queued, running := s.pool.stats()
	return retryAfterSec(s.lat.quantile(0.95), int(queued+running), s.cfg.Workers)
}
