package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/gen"
	"repro/internal/serve"
)

func TestRunFlagErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(context.Background(), []string{"-no-such-flag"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2 for a flag error", code)
	}
	if code := run(context.Background(), []string{"-addr", "definitely:not:an:addr"}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1 for an unusable listen address", code)
	}
}

// TestServeAndDrainLifecycle boots the daemon on an ephemeral port, solves
// over real HTTP, then delivers the shutdown signal (a context cancel — the
// same path SIGTERM takes) and checks the daemon drains cleanly with exit
// code 0.
func TestServeAndDrainLifecycle(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	var out, errOut bytes.Buffer
	exit := make(chan int, 1)
	go func() { exit <- serveAndDrain(ctx, ln, srv, time.Minute, &out, &errOut) }()

	base := "http://" + ln.Addr().String()
	cfg, err := json.Marshal(gen.Chain(gen.ChainOptions{Tasks: 4}))
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"config": %s}`, cfg)
	resp, err := http.Post(base+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("solve request: %v", err)
	}
	var solved struct {
		Status  string          `json:"status"`
		Mapping json.RawMessage `json:"mapping"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&solved); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || solved.Status != "optimal" {
		t.Fatalf("solve: HTTP %d status %q", resp.StatusCode, solved.Status)
	}

	if resp, err = http.Get(base + "/readyz"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz %d before shutdown", resp.StatusCode)
	}

	cancel() // the shutdown signal
	if code := <-exit; code != 0 {
		t.Fatalf("exit %d, want 0 after a clean drain; stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"draining", "drained cleanly"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("stdout %q missing %q", out.String(), want)
		}
	}
}

// TestServeAndDrainBoundExpires parks a solve past the drain bound and
// checks that the daemon reports the forced drain: exit code 1 and the
// stderr line, with the straggler's client receiving a 504.
func TestServeAndDrainBoundExpires(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	stalled := make(chan struct{})
	defer faultinject.Activate(faultinject.Rule{
		Site: faultinject.SiteServeJob, Kind: faultinject.KindStall,
		Count: 1, Gate: gate, Stalled: stalled,
	})()
	srv := serve.New(serve.Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	var out, errOut bytes.Buffer
	exit := make(chan int, 1)
	go func() { exit <- serveAndDrain(ctx, ln, srv, time.Nanosecond, &out, &errOut) }()

	cfg, err := json.Marshal(gen.Chain(gen.ChainOptions{Tasks: 4}))
	if err != nil {
		t.Fatal(err)
	}
	code := make(chan int, 1)
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/solve", "application/json",
			strings.NewReader(fmt.Sprintf(`{"config": %s}`, cfg)))
		if err != nil {
			code <- 0
			return
		}
		resp.Body.Close()
		code <- resp.StatusCode
	}()
	<-stalled // the solve is parked before its context check
	cancel()  // the shutdown signal; the drain bound has already lapsed
	waitForcedDrain(t)
	close(gate) // release the straggler into its canceled context

	if c := <-exit; c != 1 {
		t.Fatalf("exit %d, want 1 after a forced drain; stderr: %s", c, errOut.String())
	}
	if !strings.Contains(errOut.String(), "drain bound expired") {
		t.Fatalf("stderr %q missing the forced-drain line", errOut.String())
	}
	if c := <-code; c != http.StatusGatewayTimeout {
		t.Fatalf("straggler got HTTP %d, want 504", c)
	}
}

// waitForcedDrain blocks until the drain has force-canceled the in-flight
// solves. Until then its goroutine selects on the bound and on completion;
// after it, that goroutine waits on completion alone, a channel receive in
// serve's pool.drain.
func waitForcedDrain(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for start := time.Now(); time.Since(start) < 10*time.Second; time.Sleep(time.Millisecond) {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "[chan receive") && strings.Contains(g, "serve.(*pool).drain(") {
				return
			}
		}
	}
	t.Fatal("the drain never force-canceled the parked solve")
}
