package serve

import (
	"context"
	"log/slog"
	"net/http"
	"time"
)

// reqLog is the per-request record: the middleware allocates it, the
// handlers enrich it with solver-side facts (graph pattern, recovery-ladder
// rung), and the middleware emits it as one structured line when the
// response completes.
type reqLog struct {
	pattern string // taskgraph.StructureHash of the solved configuration
	rung    string // recovery-ladder rung (final backend) of the solve
}

// reqLogKey carries the *reqLog through the request context.
type reqLogKey struct{}

// requestLog returns the request's log record, or nil when the request did
// not pass through the logging middleware (e.g. direct handler tests).
func requestLog(ctx context.Context) *reqLog {
	rl, _ := ctx.Value(reqLogKey{}).(*reqLog)
	return rl
}

// statusRecorder observes the response stream: the final status code and
// the body byte count, with the implicit 200 of a header-less write made
// explicit.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	n, err := sr.ResponseWriter.Write(b)
	sr.bytes += int64(n)
	return n, err
}

// logRequests wraps next to emit one structured log line per completed
// request: route, status, body bytes, wall latency, queue pressure at
// completion, and — when the handlers filled them in — the graph pattern
// hash and the recovery-ladder rung. Server errors log at ERROR, client
// errors at WARN, everything else at INFO.
func (s *Server) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rl := &reqLog{}
		rec := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, r.WithContext(context.WithValue(r.Context(), reqLogKey{}, rl)))
		status := rec.status
		if status == 0 {
			status = http.StatusOK
		}
		queued, running := s.pool.stats()
		attrs := []slog.Attr{
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", status),
			slog.Int64("bytes", rec.bytes),
			slog.Float64("latency_ms", durationMS(time.Since(start))),
			slog.Int64("queued", queued),
			slog.Int64("running", running),
		}
		if rl.pattern != "" {
			attrs = append(attrs, slog.String("pattern", rl.pattern))
		}
		if rl.rung != "" {
			attrs = append(attrs, slog.String("rung", rl.rung))
		}
		// The request context may already be canceled (client gone); the
		// log line must still be emitted.
		s.log.LogAttrs(context.Background(), levelFor(status), "request", attrs...)
	})
}

// levelFor maps a response status onto a log level.
func levelFor(status int) slog.Level {
	switch {
	case status >= 500:
		return slog.LevelError
	case status >= 400:
		return slog.LevelWarn
	default:
		return slog.LevelInfo
	}
}
