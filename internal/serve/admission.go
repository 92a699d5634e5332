package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
)

// Admission control is a bounded worker pool behind a fixed-depth queue.
// The invariant the robustness layer hangs off is simple: the server never
// buffers more than QueueDepth requests beyond the Workers in flight. A
// request that would exceed that is rejected synchronously with 429 and a
// Retry-After computed from the moving p95 solve latency — load is shed at
// the door, in O(1), instead of accumulating into unbounded memory and
// collapsing tail latency for everyone (the classic overload failure).

// errQueueFull is returned by submit when the queue is at depth.
var errQueueFull = errors.New("serve: queue full")

// errDraining is returned by submit once the server stopped admissions.
var errDraining = errors.New("serve: draining")

// job is one admitted unit of work. fn runs on a worker goroutine and must
// store its outcome somewhere the submitter can read after done closes; it
// must not touch the HTTP response writer.
type job struct {
	ctx  context.Context
	fn   func(ctx context.Context)
	done chan struct{}
}

// pool is the bounded worker pool plus the admission gate.
type pool struct {
	queue chan *job

	mu       sync.RWMutex // guards draining against in-progress submits
	draining bool

	inflight sync.WaitGroup // accepted-but-unfinished jobs
	workers  sync.WaitGroup // worker goroutines

	queued  atomic.Int64
	running atomic.Int64
}

// newPool starts workers goroutines serving a queue of the given depth.
func newPool(workers, depth int) *pool {
	p := &pool{queue: make(chan *job, depth)}
	p.workers.Add(workers)
	for i := 0; i < workers; i++ {
		// Joined by p.workers.Wait() in drain, the pool's only shutdown path.
		go p.worker()
	}
	return p
}

// submit admits a job or rejects it synchronously: errQueueFull when the
// queue is at depth, errDraining once admissions stopped. It never blocks.
func (p *pool) submit(j *job) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.draining {
		return errDraining
	}
	// inflight.Add must precede the send: a worker may finish the job (and
	// call Done) before this goroutine runs again.
	p.inflight.Add(1)
	select {
	case p.queue <- j:
		p.queued.Add(1)
		return nil
	default:
		p.inflight.Add(-1)
		return errQueueFull
	}
}

// worker drains the queue until it is closed by drain.
func (p *pool) worker() {
	defer p.workers.Done()
	for j := range p.queue {
		p.queued.Add(-1)
		p.running.Add(1)
		p.runJob(j)
		p.running.Add(-1)
		p.inflight.Done()
		close(j.done)
	}
}

// runJob executes one job. The job's own fn already isolates solve-level
// panics into structured responses; this outer recover is the last line of
// defense that keeps a worker goroutine alive no matter what.
func (p *pool) runJob(j *job) {
	defer func() { recover() }()
	j.fn(j.ctx)
}

// beginDrain stops admissions. Safe to call more than once; after it
// returns, no submit can enqueue (in-progress submits hold the read lock,
// so acquiring the write lock serializes against them).
func (p *pool) beginDrain() {
	p.mu.Lock()
	p.draining = true
	p.mu.Unlock()
}

// drain stops admissions, waits for every accepted job to finish, and
// shuts the workers down. If ctx expires first, force is called (the
// server cancels all in-flight job contexts through it) and drain keeps
// waiting for the — now canceled — jobs to come back before returning
// ctx's error. A nil return means every job finished on its own.
func (p *pool) drain(ctx context.Context, force func()) error {
	p.beginDrain()
	idle := make(chan struct{})
	go func() {
		p.inflight.Wait()
		close(idle)
	}()
	var err error
	select {
	case <-idle:
	case <-ctx.Done():
		err = ctx.Err()
		force()
		<-idle
	}
	// No submit can send anymore (beginDrain serialized against them), so
	// closing the queue is safe and stops the workers.
	close(p.queue)
	p.workers.Wait()
	return err
}

// stats snapshots the queue gauges.
func (p *pool) stats() (queued, running int64) {
	return p.queued.Load(), p.running.Load()
}

// latency is a fixed-window moving latency record: the last Window
// completed solves, quantiles by sorting a scratch copy. Small, exact, and
// cheap at serving rates where the solve itself dominates by orders of
// magnitude.
type latency struct {
	mu      sync.Mutex
	buf     []time.Duration // ring
	n       int             // filled entries
	next    int             // ring cursor
	scratch []time.Duration
}

func newLatency(window int) *latency {
	return &latency{
		buf:     make([]time.Duration, window),
		scratch: make([]time.Duration, 0, window),
	}
}

// observe records one completed solve's latency.
func (l *latency) observe(d time.Duration) {
	l.mu.Lock()
	l.buf[l.next] = d
	l.next = (l.next + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
	l.mu.Unlock()
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of the window, or 0 while
// the window is empty.
func (l *latency) quantile(q float64) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n == 0 {
		return 0
	}
	l.scratch = append(l.scratch[:0], l.buf[:l.n]...)
	sort.Slice(l.scratch, func(i, j int) bool { return l.scratch[i] < l.scratch[j] })
	idx := int(q * float64(l.n-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= l.n {
		idx = l.n - 1
	}
	return l.scratch[idx]
}

// count returns the number of observations in the window.
func (l *latency) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// retryAfterSec estimates when a shed request should come back: the
// pending work (queued + running), paced through workers lanes at the
// moving p95 solve latency, rounded up to whole seconds and floored at 1
// (Retry-After is integral and "0" would invite an immediate hammer).
// With an empty latency window the p95 defaults to one second.
func retryAfterSec(p95 time.Duration, pending, workers int) int {
	if p95 <= 0 {
		p95 = time.Second
	}
	if workers < 1 {
		workers = 1
	}
	batches := (pending + workers - 1) / workers
	if batches < 1 {
		batches = 1
	}
	wait := time.Duration(batches) * p95
	secs := int((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// hitEnqueue fires the post-admission fault site; see SiteServeEnqueue.
func hitEnqueue() error {
	if !faultinject.Enabled() {
		return nil
	}
	return faultinject.Hit(faultinject.SiteServeEnqueue)
}

// hitJob fires the worker-side fault site, converting an injected panic
// into the same structured form a real solve panic takes; see SiteServeJob.
func hitJob() error {
	if !faultinject.Enabled() {
		return nil
	}
	return faultinject.Hit(faultinject.SiteServeJob)
}

// recoverPanic converts a recovered panic value into the error the
// response layer renders as a structured 500, with the stack captured for
// the server log.
func recoverPanic(r any) error {
	return fmt.Errorf("panic: %v\n%s", r, debug.Stack())
}
