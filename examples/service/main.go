// Service example: a well-behaved bbserve client, pure stdlib.
//
// It generates a small task-graph configuration, submits it to a running
// bbserve daemon, and demonstrates the client half of the server's
// robustness contract:
//
//   - 429 queue_full: honor the Retry-After header with jittered backoff
//     instead of hammering an overloaded server;
//   - 503 draining: the server is shutting down — retry elsewhere or later;
//   - 504 deadline: the solve ran out of budget — retry with a larger
//     deadline_ms (or accept the partial sweep results);
//   - 200 with status "infeasible": a definitive answer, not an error —
//     do not retry.
//
// Run a daemon first, then the client:
//
//	go run ./cmd/bbserve -addr 127.0.0.1:8080 &
//	go run ./examples/service -addr 127.0.0.1:8080
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/gen"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "bbserve address")
	tasks := flag.Int("tasks", 12, "chain length of the generated configuration")
	deadline := flag.Int64("deadline-ms", 5000, "per-request deadline sent in the body")
	retries := flag.Int("retries", 5, "attempts before giving up on retryable statuses")
	flag.Parse()

	cfgJSON, err := json.Marshal(gen.Chain(gen.ChainOptions{Tasks: *tasks}))
	if err != nil {
		log.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{
		"config":      json.RawMessage(cfgJSON),
		"deadline_ms": *deadline,
	})
	if err != nil {
		log.Fatal(err)
	}

	resp, err := postWithRetry(fmt.Sprintf("http://%s/v1/solve", *addr), body, *retries)
	if err != nil {
		log.Fatal(err)
	}

	var result struct {
		Status  string `json:"status"`
		Pattern string `json:"pattern"`
		Report  *struct {
			Recovered    bool   `json:"recovered"`
			FinalBackend string `json:"finalBackend"`
		} `json:"report"`
		ElapsedMS float64 `json:"elapsedMs"`
		Mapping   *struct {
			Budgets map[string]float64 `json:"budgets"`
			Buffers map[string]int     `json:"buffers"`
		} `json:"mapping"`
	}
	if err := json.Unmarshal(resp, &result); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("status:   %s (%.1f ms server-side)\n", result.Status, result.ElapsedMS)
	fmt.Printf("pattern:  %s\n", result.Pattern)
	if result.Report != nil && result.Report.Recovered {
		fmt.Printf("recovered via %s\n", result.Report.FinalBackend)
	}
	if result.Mapping != nil {
		fmt.Printf("budgets:  %d tasks, buffers: %d\n", len(result.Mapping.Budgets), len(result.Mapping.Buffers))
	}
}

// postWithRetry submits the request, retrying the statuses the server
// declares retryable. On 429 the wait is the server's Retry-After (it prices
// the backlog from its own p95 latency); on 503 an exponential fallback. A
// little jitter keeps a fleet of clients from thundering back in lockstep.
func postWithRetry(url string, body []byte, attempts int) ([]byte, error) {
	backoff := 500 * time.Millisecond
	for attempt := 1; ; attempt++ {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}

		switch resp.StatusCode {
		case http.StatusOK:
			return data, nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			wait := backoff
			if s := resp.Header.Get("Retry-After"); s != "" {
				var secs int
				if _, err := fmt.Sscanf(s, "%d", &secs); err == nil && secs > 0 {
					wait = time.Duration(secs) * time.Second
				}
			}
			if attempt >= attempts {
				return nil, fmt.Errorf("giving up after %d attempts: HTTP %d: %s", attempt, resp.StatusCode, data)
			}
			wait += time.Duration(rand.Int63n(int64(wait / 4)))
			log.Printf("HTTP %d; retrying in %v (attempt %d/%d)", resp.StatusCode, wait, attempt, attempts)
			time.Sleep(wait)
			backoff *= 2
		case http.StatusGatewayTimeout:
			return nil, fmt.Errorf("deadline too tight for this instance: %s (retry with a larger deadline_ms)", data)
		default:
			return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, data)
		}
	}
}
