package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"repro/internal/gen"
)

// BenchmarkServeSolveChain100 measures the full daemon path — admission,
// the recovery ladder, shared pattern cache, JSON in and out — on the 100-task
// chain, and reports serving-style metrics (p50/p95 per-request latency and
// throughput) alongside ns/op.
func BenchmarkServeSolveChain100(b *testing.B) {
	s := New(Config{Workers: 1})
	defer func() {
		if err := s.Drain(context.Background()); err != nil {
			b.Fatalf("drain: %v", err)
		}
	}()
	cfgJSON, err := json.Marshal(gen.Chain(gen.ChainOptions{Tasks: 100}))
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(SolveRequest{Config: cfgJSON, SkipVerification: true})
	if err != nil {
		b.Fatal(err)
	}
	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		req := httptest.NewRequest("POST", "/v1/solve", bytes.NewReader(body))
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("request %d: HTTP %d: %s", i, w.Code, w.Body)
		}
		lat = append(lat, time.Since(t0))
	}
	total := time.Since(start)
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	q := func(p float64) float64 {
		idx := int(p * float64(len(lat)-1))
		return float64(lat[idx]) / float64(time.Millisecond)
	}
	b.ReportMetric(q(0.50), "p50-ms")
	b.ReportMetric(q(0.95), "p95-ms")
	b.ReportMetric(float64(b.N)/total.Seconds(), "req/s")
}
