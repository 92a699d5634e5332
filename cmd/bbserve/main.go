// Command bbserve is the solver daemon: an HTTP/JSON front end over the
// joint budget/buffer solver with admission control, per-request deadlines,
// failure isolation, the recovery ladder on every solve, and graceful drain
// on SIGTERM. See internal/serve for the robustness layer and README.md for
// the wire format.
//
// Usage:
//
//	bbserve -addr 127.0.0.1:8080
//
// SIGTERM (or SIGINT) starts a graceful drain: /readyz flips to 503, new
// requests are rejected, and in-flight solves get up to -drain-timeout to
// finish before their contexts are canceled.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/serve"
)

func main() {
	ctx, stop := cli.SignalContext(os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bbserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "127.0.0.1:8080", "listen address")
		workers      = fs.Int("workers", 0, "concurrent solves (0 = GOMAXPROCS)")
		queue        = fs.Int("queue", 0, "admission queue depth beyond the running solves (0 = 2×workers)")
		maxDeadline  = fs.Duration("max-deadline", 60*time.Second, "upper bound on any request's deadline")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long a drain waits for in-flight solves before canceling them (0 = forever)")
		parallel     = fs.Int("parallel", 0, "per-sweep worker pool size (0 = GOMAXPROCS, 1 = sequential)")
		logLevel     = fs.String("log-level", "info", "request log level: debug, info, warn, error, or off")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logger, err := requestLogger(stderr, *logLevel)
	if err != nil {
		fmt.Fprintln(stderr, "bbserve:", err)
		return 2
	}
	srv := serve.New(serve.Config{
		Workers:     *workers,
		QueueDepth:  *queue,
		MaxDeadline: *maxDeadline,
		Solve:       core.Options{Parallelism: *parallel},
		Logger:      logger,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "bbserve:", err)
		return 1
	}
	fmt.Fprintf(stdout, "bbserve: listening on http://%s\n", ln.Addr())
	return serveAndDrain(ctx, ln, srv, *drainTimeout, stdout, stderr)
}

// requestLogger builds the JSON request logger for -log-level; "off"
// disables request logging entirely (the serve layer treats nil as off).
func requestLogger(w io.Writer, level string) (*slog.Logger, error) {
	if level == "off" {
		return nil, nil
	}
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: want debug, info, warn, error, or off", level)
	}
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: lvl})), nil
}

// serveAndDrain serves srv on ln until ctx is canceled (the shutdown
// signal), then drains: admissions stop immediately, in-flight solves get up
// to drainTimeout, stragglers are context-canceled, and the HTTP server
// shuts down last so every response is written. Exit code 0 means every
// accepted request finished; 1 means the drain bound expired and stragglers
// were canceled (their clients received 504s).
func serveAndDrain(ctx context.Context, ln net.Listener, srv *serve.Server, drainTimeout time.Duration, stdout, stderr io.Writer) int {
	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		fmt.Fprintln(stderr, "bbserve:", err)
		return 1
	case <-ctx.Done():
	}

	fmt.Fprintln(stdout, "bbserve: shutdown signal received; draining")
	srv.BeginDrain()
	// The drain deliberately does NOT inherit ctx: ctx is the shutdown
	// signal itself and is already canceled here — deriving from it would
	// turn every graceful drain into an instant force-cancel.
	dctx, dcancel := cli.WithTimeout(context.Background(), drainTimeout)
	defer dcancel()
	drainErr := srv.Drain(dctx)

	// All solves are done (or canceled); now close the listener and let any
	// remaining response writes and idle keep-alives wind down.
	sctx, scancel := cli.WithTimeout(context.Background(), drainTimeout)
	defer scancel()
	if err := hs.Shutdown(sctx); err != nil {
		fmt.Fprintln(stderr, "bbserve: http shutdown:", err)
	}
	<-errc // Serve has returned http.ErrServerClosed

	if drainErr != nil {
		fmt.Fprintln(stderr, "bbserve: drain bound expired; canceled in-flight solves")
		return 1
	}
	fmt.Fprintln(stdout, "bbserve: drained cleanly")
	return 0
}
