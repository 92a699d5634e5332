package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/gen"
	"repro/internal/taskgraph"
)

// testConfigJSON renders a small chain configuration as request JSON.
func testConfigJSON(t *testing.T, tasks int) json.RawMessage {
	t.Helper()
	cfg := gen.Chain(gen.ChainOptions{Tasks: tasks})
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatalf("marshal config: %v", err)
	}
	return data
}

// newTestServer builds a server and registers a drain-on-cleanup. Tests that
// drain themselves must not use it.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() {
		if err := s.Drain(context.Background()); err != nil {
			t.Errorf("cleanup drain: %v", err)
		}
	})
	return s
}

// do sends one request through the full handler stack.
func do(s *Server, ctx context.Context, method, path string, body any) *httptest.ResponseRecorder {
	var rd *strings.Reader
	switch b := body.(type) {
	case nil:
		rd = strings.NewReader("")
	case string:
		rd = strings.NewReader(b)
	default:
		data, err := json.Marshal(b)
		if err != nil {
			panic(err)
		}
		rd = strings.NewReader(string(data))
	}
	req := httptest.NewRequest(method, path, rd)
	if ctx != nil {
		req = req.WithContext(ctx)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

// decodeBody unmarshals a recorded JSON body.
func decodeBody[T any](t *testing.T, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("decode %q: %v", w.Body.String(), err)
	}
	return v
}

// errorCode extracts the structured error code of a non-2xx body.
func errorCode(t *testing.T, w *httptest.ResponseRecorder) ErrorDetail {
	t.Helper()
	return decodeBody[ErrorResponse](t, w).Error
}

func TestSolveOptimal(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	w := do(s, nil, "POST", "/v1/solve", SolveRequest{Config: testConfigJSON(t, 4)})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", w.Code, w.Body)
	}
	resp := decodeBody[SolveResponse](t, w)
	if resp.Status != "optimal" {
		t.Fatalf("status %q, want optimal", resp.Status)
	}
	if resp.Mapping == nil {
		t.Fatal("no mapping in optimal response")
	}
	if len(resp.Pattern) != 16 {
		t.Fatalf("pattern %q is not a 16-hex-digit hash", resp.Pattern)
	}
	if resp.Report == nil || len(resp.Report.Attempts) == 0 {
		t.Fatal("missing ladder report")
	}
	for i, a := range resp.Report.Attempts {
		if a.DurationMS <= 0 {
			t.Fatalf("attempt %d reports durationMs %v, want > 0", i, a.DurationMS)
		}
	}
	// durationMs is fractional: a sub-millisecond attempt is not rounded to 0.
	rep := reportJSON(&core.SolveReport{Attempts: []core.SolveAttempt{{Duration: 250 * time.Microsecond}}})
	if got := rep.Attempts[0].DurationMS; got != 0.25 {
		t.Fatalf("a 250µs attempt reports durationMs %v, want 0.25", got)
	}
}

// TestLadderRecoveryOverHTTP breaks exactly one sparse factorization: the
// request that hits it is rescued by the recovery ladder and reports every
// attempt, its log line names the rung, and the next request for the same
// topology runs from the server's own options again — one clean attempt,
// because no routing state is kept per pattern.
func TestLadderRecoveryOverHTTP(t *testing.T) {
	var buf bytes.Buffer
	s := newTestServer(t, Config{
		Workers: 1,
		Logger:  slog.New(slog.NewJSONHandler(&buf, nil)),
	})
	req := SolveRequest{Config: testConfigJSON(t, 4)}

	deactivate := faultinject.Activate(faultinject.Rule{
		Site: faultinject.SiteSparseLDLT, Kind: faultinject.KindError, Count: 1,
	})
	w := do(s, nil, "POST", "/v1/solve", req)
	deactivate()
	if w.Code != http.StatusOK {
		t.Fatalf("faulted solve: status %d, body %s", w.Code, w.Body)
	}
	resp := decodeBody[SolveResponse](t, w)
	rep := resp.Report
	if resp.Status != "optimal" || rep == nil || !rep.Recovered {
		t.Fatalf("faulted solve: status %q report %+v, want optimal and recovered", resp.Status, rep)
	}
	if len(rep.Attempts) != 2 || rep.Attempts[0].Status != "numerical error" || rep.Attempts[1].Status != "optimal" {
		t.Fatalf("attempts %+v, want the failed first rung and the optimal retry", rep.Attempts)
	}
	if !strings.Contains(rep.Attempts[0].Err, "injected fault") {
		t.Fatalf("first attempt err %q, want the injected fault", rep.Attempts[0].Err)
	}
	lines := logLines(t, &buf)
	if len(lines) != 1 || lines[0]["rung"] != rep.FinalBackend {
		t.Fatalf("log lines %v, want one line with rung %q", lines, rep.FinalBackend)
	}

	w = do(s, nil, "POST", "/v1/solve", req)
	if w.Code != http.StatusOK {
		t.Fatalf("follow-up solve: status %d, body %s", w.Code, w.Body)
	}
	next := decodeBody[SolveResponse](t, w)
	if next.Pattern != resp.Pattern {
		t.Fatalf("pattern changed: %q vs %q", next.Pattern, resp.Pattern)
	}
	if next.Report == nil || next.Report.Recovered || len(next.Report.Attempts) != 1 {
		t.Fatalf("follow-up report %+v, want one clean attempt", next.Report)
	}
	if got, want := next.Report.Attempts[0], rep.Attempts[0]; got.Backend != want.Backend || got.KKTReg != want.KKTReg {
		t.Fatalf("follow-up attempt %+v, want the caller's options (%s, KKTReg %v)", got, want.Backend, want.KKTReg)
	}
}

func TestSolveSharedPatternHitsCache(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	body := SolveRequest{Config: testConfigJSON(t, 4)}
	var pattern string
	for i := 0; i < 3; i++ {
		w := do(s, nil, "POST", "/v1/solve", body)
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, w.Code, w.Body)
		}
		resp := decodeBody[SolveResponse](t, w)
		if pattern == "" {
			pattern = resp.Pattern
		} else if resp.Pattern != pattern {
			t.Fatalf("pattern changed across identical requests: %q vs %q", resp.Pattern, pattern)
		}
	}
	hits, misses := s.cache.Stats()
	if misses == 0 || hits == 0 {
		t.Fatalf("cache hits=%d misses=%d; want the first request to miss and repeats to hit", hits, misses)
	}
}

func TestSolveRejectsMalformedBody(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	w := do(s, nil, "POST", "/v1/solve", `{"config": not json`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", w.Code)
	}
	if det := errorCode(t, w); det.Code != CodeInvalidRequest {
		t.Fatalf("code %q, want %q", det.Code, CodeInvalidRequest)
	}
}

func TestSolveRejectsInvalidConfig(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	// Structurally valid JSON, semantically empty configuration.
	w := do(s, nil, "POST", "/v1/solve", SolveRequest{Config: json.RawMessage(`{"graphs":[{"name":""}]}`)})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, body %s, want 400", w.Code, w.Body)
	}
	if det := errorCode(t, w); det.Code != CodeInvalidRequest {
		t.Fatalf("code %q, want %q", det.Code, CodeInvalidRequest)
	}
}

func TestSolveRejectsMultiRateAsClientError(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	cfg := gen.RandomMultiRateChain(7, 4, 0.5)
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := do(s, nil, "POST", "/v1/solve", SolveRequest{Config: data})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, body %s, want 400 (model rejected before solving)", w.Code, w.Body)
	}
	det := errorCode(t, w)
	if det.Code != CodeInvalidRequest {
		t.Fatalf("code %q, want %q", det.Code, CodeInvalidRequest)
	}
	if !strings.Contains(det.Message, "multi-rate") {
		t.Fatalf("message %q does not name the rejection", det.Message)
	}
}

func TestSolveBodyLimit(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 64})
	w := do(s, nil, "POST", "/v1/solve", SolveRequest{Config: testConfigJSON(t, 8)})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 for an oversized body", w.Code)
	}
}

// TestSolveDeadlineMidSolve drives the 504 path deterministically: the
// solver is parked inside an interior-point iteration, the client goes away,
// and releasing the solver must surface StatusCanceled as a structured 504.
// No sleeps: the stall rendezvous orders every step.
func TestSolveDeadlineMidSolve(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	gate := make(chan struct{})
	stalled := make(chan struct{})
	defer faultinject.Activate(faultinject.Rule{
		Site: faultinject.SiteIPMIteration, Kind: faultinject.KindStall,
		After: 1, Count: 1, Gate: gate, Stalled: stalled,
	})()

	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct{ w *httptest.ResponseRecorder }
	done := make(chan outcome, 1)
	go func() {
		done <- outcome{do(s, ctx, "POST", "/v1/solve", SolveRequest{Config: testConfigJSON(t, 4)})}
	}()

	<-stalled   // the solve is mid-iteration
	cancel()    // the client hangs up
	close(gate) // release the solver; its next iteration check sees the cancel

	res := (<-done).w
	if res.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, body %s, want 504", res.Code, res.Body)
	}
	det := errorCode(t, res)
	if det.Code != CodeDeadline {
		t.Fatalf("code %q, want %q", det.Code, CodeDeadline)
	}
	if det.Report == nil || len(det.Report.Attempts) == 0 {
		t.Fatal("504 body must carry the ladder report of the canceled attempt")
	}
	if got := det.Report.Attempts[len(det.Report.Attempts)-1].Status; got != "canceled" {
		t.Fatalf("last attempt status %q, want canceled", got)
	}
	if n := s.vars.deadline.Load(); n != 1 {
		t.Fatalf("deadline counter %d, want 1", n)
	}
}

func TestSweepOK(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	w := do(s, nil, "POST", "/v1/sweep", SweepRequest{Config: testConfigJSON(t, 4), Caps: []int{2, 4}})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", w.Code, w.Body)
	}
	resp := decodeBody[SweepResponse](t, w)
	if len(resp.Points) != 2 || resp.Completed != 2 {
		t.Fatalf("points=%d completed=%d, want 2/2", len(resp.Points), resp.Completed)
	}
	for i, pt := range resp.Points {
		if pt.Status != "optimal" {
			t.Fatalf("point %d status %q", i, pt.Status)
		}
		if pt.Mapping == nil {
			t.Fatalf("point %d has no mapping", i)
		}
	}
}

func TestSweepRejectsEmptyCaps(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	w := do(s, nil, "POST", "/v1/sweep", SweepRequest{Config: testConfigJSON(t, 3)})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", w.Code)
	}
}

func TestSweepRejectsUnknownBuffer(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	w := do(s, nil, "POST", "/v1/sweep", SweepRequest{
		Config: testConfigJSON(t, 3), Buffers: []string{"no-such-buffer"}, Caps: []int{2},
	})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, body %s, want 400", w.Code, w.Body)
	}
}

// TestSweepPartialOn504 pins the degradation contract: a deadline that lands
// mid-sweep returns the completed points inside the 504 body instead of
// discarding them.
func TestSweepPartialOn504(t *testing.T) {
	// WarmChunk 1 + Parallelism 1: sweep job i is exactly cap i, in order.
	s := newTestServer(t, Config{Workers: 1, Solve: core.Options{Parallelism: 1, WarmChunk: 1}})
	gate := make(chan struct{})
	stalled := make(chan struct{})
	defer faultinject.Activate(faultinject.Rule{
		Site: faultinject.SiteSweepJob(1), Kind: faultinject.KindStall,
		Count: 1, Gate: gate, Stalled: stalled,
	})()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		done <- do(s, ctx, "POST", "/v1/sweep", SweepRequest{Config: testConfigJSON(t, 4), Caps: []int{2, 3, 4}})
	}()

	<-stalled   // point 0 solved; point 1 parked
	cancel()    // deadline lands
	close(gate) // release point 1 into the canceled context

	res := <-done
	if res.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, body %s, want 504", res.Code, res.Body)
	}
	det := errorCode(t, res)
	if det.Code != CodeDeadline {
		t.Fatalf("code %q, want %q", det.Code, CodeDeadline)
	}
	if det.Partial == nil {
		t.Fatal("504 body must carry the partial sweep")
	}
	if det.Partial.Completed != 1 {
		t.Fatalf("completed %d, want exactly the pre-deadline point", det.Partial.Completed)
	}
	if got := det.Partial.Points[0].Status; got != "optimal" {
		t.Fatalf("point 0 status %q, want optimal", got)
	}
	for _, pt := range det.Partial.Points[1:] {
		if pt.Status == "optimal" {
			t.Fatalf("post-deadline cap %d reported optimal", pt.Cap)
		}
	}
}

func TestHealthAndReady(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	if w := do(s, nil, "GET", "/healthz", nil); w.Code != http.StatusOK {
		t.Fatalf("healthz %d", w.Code)
	}
	if w := do(s, nil, "GET", "/readyz", nil); w.Code != http.StatusOK {
		t.Fatalf("readyz %d before drain", w.Code)
	}
}

func TestDebugVars(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	if w := do(s, nil, "POST", "/v1/solve", SolveRequest{Config: testConfigJSON(t, 3)}); w.Code != http.StatusOK {
		t.Fatalf("solve %d: %s", w.Code, w.Body)
	}
	w := do(s, nil, "GET", "/debug/vars", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("vars %d", w.Code)
	}
	vars := decodeBody[map[string]json.RawMessage](t, w)
	for _, key := range []string{"requests", "queue", "latencyMs", "cache", "ready", "uptimeSec"} {
		if _, ok := vars[key]; !ok {
			t.Fatalf("vars missing %q: %s", key, w.Body)
		}
	}
	var reqs map[string]int64
	if err := json.Unmarshal(vars["requests"], &reqs); err != nil {
		t.Fatal(err)
	}
	if reqs["accepted"] != 1 || reqs["solvedOptimal"] != 1 {
		t.Fatalf("requests counters %v, want accepted=1 solvedOptimal=1", reqs)
	}
}

func TestDeadlineResolution(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxDeadline: 10 * time.Second})
	req := func(hdr string) *http.Request {
		r := httptest.NewRequest("POST", "/v1/solve", nil)
		if hdr != "" {
			r.Header.Set("Request-Timeout", hdr)
		}
		return r
	}
	cases := []struct {
		name   string
		bodyMS int64
		header string
		want   time.Duration
	}{
		{"default is server max", 0, "", 10 * time.Second},
		{"body clamps down", 1500, "", 1500 * time.Millisecond},
		{"body clamped by max", 60_000, "", 10 * time.Second},
		{"header seconds", 0, "2", 2 * time.Second},
		{"header fractional", 0, "0.25", 250 * time.Millisecond},
		{"body wins over header", 1000, "9", time.Second},
		{"garbage header ignored", 0, "soon", 10 * time.Second},
		{"negative header ignored", 0, "-3", 10 * time.Second},
	}
	for _, tc := range cases {
		if got := s.deadline(req(tc.header), tc.bodyMS); got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestStructureHashMatchesServerKey pins that the HTTP pattern field is the
// hex rendering of taskgraph's structure hash, so clients can precompute
// which requests share a topology.
func TestStructureHashMatchesServerKey(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	raw := testConfigJSON(t, 4)
	cfg, err := taskgraph.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	w := do(s, nil, "POST", "/v1/solve", SolveRequest{Config: raw})
	if w.Code != http.StatusOK {
		t.Fatalf("solve %d: %s", w.Code, w.Body)
	}
	resp := decodeBody[SolveResponse](t, w)
	if want := patternString(cfg.StructureHash()); resp.Pattern != want {
		t.Fatalf("pattern %q, want %q", resp.Pattern, want)
	}
}
