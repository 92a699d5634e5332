package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// TestQueueFullShedsDeterministically fills the pool to its exact capacity —
// every worker parked mid-job, every queue slot occupied — and checks the
// next request is shed with 429, a Retry-After, and the queue_full code. The
// choreography is rendezvous-driven: stall rules park the workers, per-hit
// stall rules on the enqueue site confirm each admission before the next
// request is sent. Nothing sleeps, nothing polls.
func TestQueueFullShedsDeterministically(t *testing.T) {
	const workers, depth = 2, 3
	s := newTestServer(t, Config{Workers: workers, QueueDepth: depth})

	jobGate := make(chan struct{})
	enqGate := make(chan struct{})
	var rules []faultinject.Rule
	jobStalled := make([]chan struct{}, workers)
	for i := range jobStalled {
		jobStalled[i] = make(chan struct{})
		rules = append(rules, faultinject.Rule{
			Site: faultinject.SiteServeJob, Kind: faultinject.KindStall,
			After: i, Count: 1, Gate: jobGate, Stalled: jobStalled[i],
		})
	}
	enqStalled := make([]chan struct{}, workers+depth)
	for i := range enqStalled {
		enqStalled[i] = make(chan struct{})
		rules = append(rules, faultinject.Rule{
			Site: faultinject.SiteServeEnqueue, Kind: faultinject.KindStall,
			After: i, Count: 1, Gate: enqGate, Stalled: enqStalled[i],
		})
	}
	defer faultinject.Activate(rules...)()

	body := SolveRequest{Config: testConfigJSON(t, 3)}
	results := make([]chan *httptest.ResponseRecorder, workers+depth)
	for i := range results {
		results[i] = make(chan *httptest.ResponseRecorder, 1)
		i := i
		go func() { results[i] <- do(s, nil, "POST", "/v1/solve", body) }()
		<-enqStalled[i] // request i admitted
		if i < workers {
			<-jobStalled[i] // its worker picked it up and parked
		}
	}
	// workers running + depth queued: the pool is at exact capacity.
	if queued, running := s.pool.stats(); queued != depth || running != workers {
		t.Fatalf("gauges queued=%d running=%d, want %d/%d", queued, running, depth, workers)
	}

	w := do(s, nil, "POST", "/v1/solve", body)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d, body %s, want 429", w.Code, w.Body)
	}
	det := errorCode(t, w)
	if det.Code != CodeQueueFull {
		t.Fatalf("code %q, want %q", det.Code, CodeQueueFull)
	}
	retry, err := strconv.Atoi(w.Header().Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Fatalf("Retry-After %q, want an integer ≥ 1", w.Header().Get("Retry-After"))
	}
	if det.RetryAfterSec != retry {
		t.Fatalf("body retryAfterSec %d != header %d", det.RetryAfterSec, retry)
	}
	if n := s.vars.shed.Load(); n != 1 {
		t.Fatalf("shed counter %d, want 1", n)
	}

	// Release everything: the parked and queued requests must all finish
	// cleanly — shedding the overflow lost no admitted work.
	close(jobGate)
	close(enqGate)
	for i, ch := range results {
		if res := <-ch; res.Code != http.StatusOK {
			t.Fatalf("admitted request %d finished %d: %s", i, res.Code, res.Body)
		}
	}
}

// TestPanicIsolation checks that a panicking job produces a structured 500
// for its own request and nothing else: the worker survives and the next
// request on the same server succeeds.
func TestPanicIsolation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	deactivate := faultinject.Activate(faultinject.Rule{
		Site: faultinject.SiteServeJob, Kind: faultinject.KindPanic, Count: 1,
	})
	defer deactivate()

	body := SolveRequest{Config: testConfigJSON(t, 3)}
	w := do(s, nil, "POST", "/v1/solve", body)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", w.Code)
	}
	if det := errorCode(t, w); det.Code != CodePanic {
		t.Fatalf("code %q, want %q", det.Code, CodePanic)
	}
	if n := s.vars.panics.Load(); n != 1 {
		t.Fatalf("panic counter %d, want 1", n)
	}

	deactivate()
	if w := do(s, nil, "POST", "/v1/solve", body); w.Code != http.StatusOK {
		t.Fatalf("post-panic request %d: %s — the worker did not survive", w.Code, w.Body)
	}
}

// TestSweepPanicIsolation covers the same contract on the sweep endpoint.
func TestSweepPanicIsolation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	defer faultinject.Activate(faultinject.Rule{
		Site: faultinject.SiteServeJob, Kind: faultinject.KindPanic, Count: 1,
	})()
	w := do(s, nil, "POST", "/v1/sweep", SweepRequest{Config: testConfigJSON(t, 3), Caps: []int{2}})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", w.Code)
	}
	if det := errorCode(t, w); det.Code != CodePanic {
		t.Fatalf("code %q, want %q", det.Code, CodePanic)
	}
}

// TestInjectedJobError drives the internal-failure path on a worker.
func TestInjectedJobError(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	defer faultinject.Activate(faultinject.Rule{
		Site: faultinject.SiteServeJob, Kind: faultinject.KindError, Count: 1,
	})()
	w := do(s, nil, "POST", "/v1/solve", SolveRequest{Config: testConfigJSON(t, 3)})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", w.Code)
	}
	if det := errorCode(t, w); det.Code != CodeInternal {
		t.Fatalf("code %q, want %q", det.Code, CodeInternal)
	}
}

// TestInjectedEnqueueError drives the handler-side internal failure after
// admission.
func TestInjectedEnqueueError(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	defer faultinject.Activate(faultinject.Rule{
		Site: faultinject.SiteServeEnqueue, Kind: faultinject.KindError, Count: 1,
	})()
	w := do(s, nil, "POST", "/v1/solve", SolveRequest{Config: testConfigJSON(t, 3)})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", w.Code)
	}
	if det := errorCode(t, w); det.Code != CodeInternal {
		t.Fatalf("code %q, want %q", det.Code, CodeInternal)
	}
}

// TestLadderExhaustionIsSolverError breaks every factorization backend (the
// sparse-LDLᵀ site fires in both the simplicial and the supernodal one) so
// the recovery ladder runs dry, and checks the failure surfaces as a 500
// with the full per-rung report rather than a panic or an empty body.
func TestLadderExhaustionIsSolverError(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	defer faultinject.Activate(faultinject.Rule{
		Site: faultinject.SiteSparseLDLT, Kind: faultinject.KindError,
	})()
	w := do(s, nil, "POST", "/v1/solve", SolveRequest{Config: testConfigJSON(t, 3)})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, body %s, want 500", w.Code, w.Body)
	}
	det := errorCode(t, w)
	if det.Code != CodeSolverError {
		t.Fatalf("code %q, want %q", det.Code, CodeSolverError)
	}
	if det.Report == nil || len(det.Report.Attempts) < 2 {
		t.Fatalf("exhaustion report %+v, want every failed rung listed", det.Report)
	}
	if det.Report.Recovered {
		t.Fatal("exhausted ladder reported recovered")
	}
	if n := s.vars.solverErrors.Load(); n != 1 {
		t.Fatalf("solverErrors counter %d, want 1", n)
	}
}

func TestLatencyQuantiles(t *testing.T) {
	l := newLatency(8)
	if got := l.quantile(0.95); got != 0 {
		t.Fatalf("empty window p95 = %v, want 0", got)
	}
	for i := 1; i <= 8; i++ {
		l.observe(time.Duration(i) * time.Millisecond)
	}
	if got := l.quantile(0); got != time.Millisecond {
		t.Fatalf("p0 = %v", got)
	}
	if got := l.quantile(1); got != 8*time.Millisecond {
		t.Fatalf("p100 = %v", got)
	}
	if got := l.quantile(0.5); got != 4*time.Millisecond {
		t.Fatalf("p50 = %v, want 4ms (index ⌊0.5·7⌋)", got)
	}
}

func TestLatencyRingEvictsOldest(t *testing.T) {
	l := newLatency(4)
	for i := 1; i <= 4; i++ {
		l.observe(time.Duration(i) * time.Second)
	}
	// Four more observations push the first four out entirely.
	for i := 0; i < 4; i++ {
		l.observe(time.Millisecond)
	}
	if got := l.quantile(1); got != time.Millisecond {
		t.Fatalf("max after wraparound = %v, want the window to hold only fresh samples", got)
	}
	if l.count() != 4 {
		t.Fatalf("count %d, want window size", l.count())
	}
}

func TestRetryAfterSec(t *testing.T) {
	cases := []struct {
		p95              time.Duration
		pending, workers int
		want             int
	}{
		{0, 0, 4, 1},                       // empty window, idle: the 1s floor
		{100 * time.Millisecond, 4, 4, 1},  // one batch of fast solves
		{100 * time.Millisecond, 12, 4, 1}, // 3 batches × 100ms rounds up to 1
		{2 * time.Second, 12, 4, 6},        // 3 batches × 2s
		{1500 * time.Millisecond, 5, 4, 3}, // 2 batches × 1.5s
		{30 * time.Second, 1, 0, 30},       // degenerate workers clamp to 1
		{time.Nanosecond, 1000000, 1, 1},   // sub-second total still rounds up to 1
	}
	for _, tc := range cases {
		if got := retryAfterSec(tc.p95, tc.pending, tc.workers); got != tc.want {
			t.Errorf("retryAfterSec(%v, %d, %d) = %d, want %d", tc.p95, tc.pending, tc.workers, got, tc.want)
		}
	}
}

func TestRecoverPanicFormatsValueAndStack(t *testing.T) {
	err := func() (err error) {
		defer func() { err = recoverPanic(recover()) }()
		panic(fmt.Errorf("boom %d", 7))
	}()
	if err == nil {
		t.Fatal("nil error")
	}
	for _, want := range []string{"boom 7", "goroutine"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("recovered error %q missing %q", err.Error(), want)
		}
	}
}
