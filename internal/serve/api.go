package serve

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/socp"
	"repro/internal/taskgraph"
)

// The /v1 wire format. Requests carry the taskgraph configuration verbatim
// (the same JSON document bbmap -config reads, fuzz-hardened in
// taskgraph.Parse); responses carry the rounded mapping plus the full
// recovery-ladder report, so a client can see not just the answer but how
// hard the solver had to fight for it.

// SolveRequest is the body of POST /v1/solve.
type SolveRequest struct {
	// Config is the JSON encoding of taskgraph.Config.
	Config json.RawMessage `json:"config"`
	// DeadlineMS bounds the solve in milliseconds, measured from admission
	// of the request. It is clamped by the server's -max-deadline; 0 (or
	// absent) selects the server maximum. The Request-Timeout header (in
	// seconds) is an alternative spelling; the body field wins when both
	// are present.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// SkipVerification drops the post-rounding SRDF verification pass.
	SkipVerification bool `json:"skip_verification,omitempty"`
}

// SweepRequest is the body of POST /v1/sweep: one solve per buffer-capacity
// cap, the paper's trade-off exploration as a service.
type SweepRequest struct {
	Config json.RawMessage `json:"config"`
	// Buffers names the buffers the cap applies to (all when empty).
	Buffers []string `json:"buffers,omitempty"`
	// Caps lists the MaxContainers values to sweep, one solve each.
	Caps       []int `json:"caps"`
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// SolveResponse is the success body of /v1/solve. Status "optimal" carries
// a mapping; "infeasible" is a definitive no-mapping answer (still HTTP
// 200 — infeasibility is a result, not a failure).
type SolveResponse struct {
	Status              string             `json:"status"`
	Mapping             *taskgraph.Mapping `json:"mapping,omitempty"`
	ContinuousObjective float64            `json:"continuousObjective,omitempty"`
	Iterations          int                `json:"iterations"`
	Report              *Report            `json:"report,omitempty"`
	// Pattern is the configuration's topology hash (hex): requests sharing
	// it share breaker state.
	Pattern string `json:"pattern"`
	// Breaker is "open" when this solve was routed straight to the
	// pattern's known-good backend, "probe" when it was the half-open
	// probe; absent while the breaker is closed.
	Breaker   string  `json:"breaker,omitempty"`
	ElapsedMS float64 `json:"elapsedMs"`
}

// SweepPoint is one cap's outcome inside a SweepResponse. Points a
// deadline cut off report status "skipped" and no mapping.
type SweepPoint struct {
	Cap                 int                `json:"cap"`
	Status              string             `json:"status"`
	Mapping             *taskgraph.Mapping `json:"mapping,omitempty"`
	ContinuousObjective float64            `json:"continuousObjective,omitempty"`
	Iterations          int                `json:"iterations,omitempty"`
}

// SweepResponse is the body of /v1/sweep — also embedded in a 504 error
// body as the partial result when the deadline lands mid-sweep.
type SweepResponse struct {
	Points []SweepPoint `json:"points"`
	// Completed counts the points that reached a definitive status before
	// the sweep ended.
	Completed int     `json:"completed"`
	Pattern   string  `json:"pattern"`
	ElapsedMS float64 `json:"elapsedMs"`
}

// Report is the JSON rendering of core.SolveReport: every rung of the
// recovery ladder the solve needed.
type Report struct {
	Recovered    bool      `json:"recovered"`
	FinalBackend string    `json:"finalBackend"`
	Attempts     []Attempt `json:"attempts"`
}

// Attempt is one recovery-ladder rung.
type Attempt struct {
	Backend    string  `json:"backend"`
	Status     string  `json:"status"`
	Err        string  `json:"err,omitempty"`
	Iterations int     `json:"iterations"`
	Warm       bool    `json:"warm,omitempty"`
	KKTReg     float64 `json:"kktReg,omitempty"`
	DurationMS float64 `json:"durationMs"`
}

// Error codes of the ErrorResponse body. Each maps to exactly one HTTP
// status, so clients can switch on either.
const (
	// CodeInvalidRequest (400): malformed JSON, an unparsable or invalid
	// configuration, or a model the solver rejects (e.g. multi-rate).
	CodeInvalidRequest = "invalid_request"
	// CodeQueueFull (429): admission control shed the request because the
	// bounded queue is full. Retry-After carries the estimated backoff.
	CodeQueueFull = "queue_full"
	// CodeDraining (503): the server is draining after SIGTERM and admits
	// no new work. /readyz reports the same condition.
	CodeDraining = "draining"
	// CodeDeadline (504): the request's deadline (or the client's
	// disconnect) canceled the solve. The body carries the ladder report
	// and, for sweeps, the completed points.
	CodeDeadline = "deadline"
	// CodePanic (500): the solve panicked; the panic was isolated to this
	// request and the worker kept running.
	CodePanic = "panic"
	// CodeInternal (500): an injected or otherwise internal serve-layer
	// failure before the solver produced a status.
	CodeInternal = "internal"
	// CodeSolverError (500): the recovery ladder was exhausted — every
	// rung failed numerically — or verification of the rounded mapping
	// failed. The report names every attempt.
	CodeSolverError = "solver_error"
)

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail carries the machine-readable failure.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterSec mirrors the Retry-After header on 429 responses.
	RetryAfterSec int `json:"retryAfterSec,omitempty"`
	// Report is the recovery-ladder record when the solver ran at all.
	Report *Report `json:"report,omitempty"`
	// Partial carries the completed sweep points of a deadline-cut sweep.
	Partial *SweepResponse `json:"partial,omitempty"`
}

// reportJSON converts a ladder report for the wire; nil stays nil.
func reportJSON(rep *core.SolveReport) *Report {
	if rep == nil {
		return nil
	}
	out := &Report{
		Recovered:    rep.Recovered,
		FinalBackend: rep.FinalBackend,
		Attempts:     make([]Attempt, len(rep.Attempts)),
	}
	for i, a := range rep.Attempts {
		out.Attempts[i] = Attempt{
			Backend:    a.Backend,
			Status:     a.Status.String(),
			Err:        a.Err,
			Iterations: a.Iterations,
			Warm:       a.Warm,
			KKTReg:     a.KKTReg,
			DurationMS: float64(a.Duration.Milliseconds()),
		}
	}
	return out
}

// statusString renders a core status for the wire.
func statusString(s core.Status) string { return s.String() }

// solverStatusString renders a solver status for the wire.
func solverStatusString(s socp.Status) string { return s.String() }

// patternString renders a structure hash for the wire.
func patternString(h uint64) string { return fmt.Sprintf("%016x", h) }
