package serve

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"testing"
)

// logLines decodes the JSON log buffer into one map per line.
func logLines(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var lines []map[string]any
	for _, ln := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if ln == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("bad log line %q: %v", ln, err)
		}
		lines = append(lines, m)
	}
	return lines
}

func TestRequestLogging(t *testing.T) {
	var buf bytes.Buffer
	s := newTestServer(t, Config{
		Workers: 1,
		Logger:  slog.New(slog.NewJSONHandler(&buf, nil)),
	})

	if w := do(s, nil, http.MethodGet, "/healthz", nil); w.Code != http.StatusOK {
		t.Fatalf("healthz: %d", w.Code)
	}
	req := &SolveRequest{Config: testConfigJSON(t, 3)}
	if w := do(s, nil, http.MethodPost, "/v1/solve", req); w.Code != http.StatusOK {
		t.Fatalf("solve: %d %s", w.Code, w.Body.String())
	}
	if w := do(s, nil, http.MethodPost, "/v1/solve", "{not json"); w.Code != http.StatusBadRequest {
		t.Fatalf("bad solve: %d", w.Code)
	}

	lines := logLines(t, &buf)
	if len(lines) != 3 {
		t.Fatalf("want 3 log lines, got %d: %v", len(lines), lines)
	}
	for i, want := range []struct {
		path   string
		status float64
		level  string
	}{
		{"/healthz", 200, "INFO"},
		{"/v1/solve", 200, "INFO"},
		{"/v1/solve", 400, "WARN"},
	} {
		got := lines[i]
		if got["msg"] != "request" || got["path"] != want.path || got["status"] != want.status || got["level"] != want.level {
			t.Errorf("line %d: want path=%s status=%v level=%s, got %v", i, want.path, want.status, want.level, got)
		}
		for _, key := range []string{"method", "bytes", "latency_ms", "queued", "running"} {
			if _, ok := got[key]; !ok {
				t.Errorf("line %d missing %q: %v", i, key, got)
			}
		}
	}

	// The successful solve line carries the solver-side enrichment: the
	// graph pattern hash and the recovery-ladder rung.
	solved := lines[1]
	if p, _ := solved["pattern"].(string); p == "" {
		t.Errorf("solve line has no pattern: %v", solved)
	}
	if r, _ := solved["rung"].(string); r == "" {
		t.Errorf("solve line has no ladder rung: %v", solved)
	}
	// The malformed request never reached the solver: no enrichment.
	if _, ok := lines[2]["pattern"]; ok {
		t.Errorf("bad-request line carries a pattern: %v", lines[2])
	}
}

func TestNilLoggerDisablesRequestLogging(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	if w := do(s, nil, http.MethodGet, "/healthz", nil); w.Code != http.StatusOK {
		t.Fatalf("healthz: %d", w.Code)
	}
	// Nothing to assert beyond not crashing: the discard handler swallows
	// the line. levelFor still must classify correctly.
	if levelFor(204) != slog.LevelInfo || levelFor(404) != slog.LevelWarn || levelFor(500) != slog.LevelError {
		t.Error("levelFor misclassifies statuses")
	}
}
