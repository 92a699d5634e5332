package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/taskgraph"
)

// clients is the size of the serve workload's closed loop: callers such as
// examples/service wait for each reply before sending the next request.
const clients = 2

// request is one /v1/solve body of the serve workload.
type request struct {
	name string
	cfg  *taskgraph.Config
	body []byte
}

// serveInstance is bbserve in-process behind a loopback TCP listener.
type serveInstance struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error // hs.Serve's return value
	url    string
	client *http.Client
	reqs   []request
}

// setupServe builds the serve workload: multi-job topologies whose periods
// vary from request to request, so requests share a StructureHash and the
// server's pattern cache, sent by a closed loop of two keep-alive clients
// to a two-worker server. It is the only workload with HTTP/JSON,
// admission, the breaker and two solves in flight on one shared cache.
func setupServe(_ context.Context, seed int64, tiny bool) (instance, error) {
	topologies, variants, jobs, tasks := 16, 4, 6, 6
	if tiny {
		topologies, variants, jobs, tasks = 2, 4, 2, 4
	}
	var bases []*taskgraph.Config
	for _, s := range seeds(seed, topologies) {
		bases = append(bases, multiJob(s, jobs, tasks, 8))
	}
	in := &serveInstance{served: make(chan error, 1)}
	for v := 0; v < variants; v++ {
		for _, base := range bases {
			cfg := base.Clone()
			for _, tg := range cfg.Graphs {
				tg.Period *= 1 + 0.02*float64(v)
			}
			body, err := solveBody(cfg)
			if err != nil {
				return nil, err
			}
			in.reqs = append(in.reqs, request{name: fmt.Sprintf("%s-v%d", base.Name, v), cfg: cfg, body: body})
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in.srv = serve.New(serve.Config{Workers: 2, Solve: core.Options{Parallelism: 1}})
	in.hs = &http.Server{Handler: in.srv.Handler()}
	go func() { in.served <- in.hs.Serve(ln) }()
	in.url = "http://" + ln.Addr().String() + "/v1/solve"
	in.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	return in, nil
}

func solveBody(cfg *taskgraph.Config) ([]byte, error) {
	data, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	return json.Marshal(serve.SolveRequest{Config: data})
}

// pass sends every request once. After each reply the client runs the
// reference kernel once, its think time before the next request.
func (in *serveInstance) pass(ctx context.Context, tr *tracer, ref *hostRef) ([]sample, error) {
	out := make([]sample, len(in.reqs))
	errs := make([]error, clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(in.reqs) {
					return
				}
				s, err := in.do(ctx, tr, in.reqs[i])
				if err != nil {
					errs[c] = err
					return
				}
				out[i] = s
				ref.sample()
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return out, nil
}

// do sends one request and reads the whole reply. A non-200 reply (a 429
// included) is a failed op, not an error of the run.
func (in *serveInstance) do(ctx context.Context, tr *tracer, r request) (sample, error) {
	id := tr.newOp()
	sp := tr.start("op:"+r.name, 0, id)
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, in.url, bytes.NewReader(r.body))
	if err != nil {
		return sample{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := in.client.Do(req)
	if err != nil {
		return sample{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	dur := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return sample{}, err
	}
	s := sample{op: r.name, opID: id, dur: dur, solves: 1}
	if resp.StatusCode != http.StatusOK {
		s.check = func(*checker) error { return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data)) }
		return s, nil
	}
	var sr serve.SolveResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		return sample{}, fmt.Errorf("decoding %s reply: %w", r.name, err)
	}
	s.waitMS = float64(dur.Nanoseconds())/1e6 - sr.ElapsedMS
	if sr.Report != nil {
		s.reported, s.attempts, s.iters = 1, len(sr.Report.Attempts), sr.Iterations
	}
	s.points = []point{{base: r.cfg, mapping: sr.Mapping}}
	s.check = func(chk *checker) error {
		if sr.Status != "optimal" || sr.Mapping == nil {
			return fmt.Errorf("status %q", sr.Status)
		}
		return chk.served(ctx, r.name, r.cfg, sr.Mapping)
	}
	return s, nil
}

func (in *serveInstance) counters() (counters, error) { return serverCounters(in.srv) }

func (in *serveInstance) layers() layerSetup {
	return layerSetup{sharedCache: true, server: in.srv}
}

func (in *serveInstance) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := in.hs.Shutdown(ctx)
	if e := <-in.served; !errors.Is(e, http.ErrServerClosed) {
		err = errors.Join(err, e)
	}
	in.client.CloseIdleConnections()
	return errors.Join(err, in.srv.Drain(ctx))
}

// serverCounters reads a server's /debug/vars through its handler.
func serverCounters(srv *serve.Server) (counters, error) {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/vars", nil))
	var v struct {
		Requests struct {
			Accepted int64 `json:"accepted"`
			Shed     int64 `json:"shed"`
		} `json:"requests"`
		Cache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		return counters{}, fmt.Errorf("decoding /debug/vars: %w", err)
	}
	return counters{hits: v.Cache.Hits, misses: v.Cache.Misses, shed: v.Requests.Shed, accepted: v.Requests.Accepted}, nil
}
