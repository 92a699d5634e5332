package core

import (
	"context"
	"errors"
	"runtime/debug"

	"repro/internal/socp"
)

// The sweep drivers thread two kinds of reuse through their per-point
// solves. Both default on and both are pure accelerations: disabling them
// (Options.NoWarmStart / Options.NoPatternCache) reproduces the independent
// per-point solves bit for bit.
//
//   - A shared socp.PatternCache: every point of a sweep solves the same
//     topology, so the pattern-keyed symbolic work (orderings, elimination
//     trees, scatter plans) is computed once and the solve spaces (numeric
//     workspaces and every other solver buffer) are pooled across the
//     worker pool.
//   - Warm-start chains: the sweep is partitioned into fixed-length chunks;
//     chunks are dispatched to the bounded worker pool, and within a chunk
//     the points run in order, each seeding its successor with its interior
//     point. Neighboring sweep points differ by one bound or one weight
//     ratio, so the seeded predictor-corrector re-converges in a fraction
//     of the cold iteration count. The chunk length (Options.WarmChunk) is
//     part of the sweep's definition — never derived from Parallelism — so
//     which points warm-start which is fixed and the sweep's output is
//     bitwise reproducible at any parallelism.
//
// SweepBufferCaps and DSEBisect also share one build of Algorithm 1 per
// call (capFamily). That reuse has no switch: every point solves exactly
// the problem BuildProblem gives for its configuration.

// sweepCache returns the pattern cache a sweep's solves share, honoring an
// existing caller-configured cache and the NoPatternCache switch.
func sweepCache(opt *Options) {
	if opt.NoPatternCache {
		opt.Solver.Cache = nil
		return
	}
	if opt.Solver.Cache == nil {
		opt.Solver.Cache = socp.NewPatternCache()
	}
}

// runWarmChunks runs n ordered jobs with warm-start chaining in fixed-size
// chunks on the bounded worker pool. fn receives the warm start produced by
// the previous job of its chunk (nil for chunk heads and after failures)
// and returns its result plus the warm start for its successor.
//
// The failure semantics mirror RunSweep: every job runs even when earlier
// ones fail (a failed job only breaks the warm chain, the next point runs
// cold), panics are isolated to their own index, the aggregated error joins
// all failures in index order, and the results slice always carries the
// completed values at their indices.
func runWarmChunks[T any](ctx context.Context, n int, opt Options,
	fn func(ctx context.Context, i int, warm *socp.WarmStart) (T, *socp.WarmStart, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	chunk := opt.warmChunk()
	nchunks := (n + chunk - 1) / chunk
	results := make([]T, n)
	errs := make([]error, n)
	// Each chunk job writes a disjoint index range of results/errs, so the
	// shared slices need no locking.
	_, poolErr := RunSweep(ctx, nchunks, opt.Parallelism, func(ctx context.Context, ci int) (struct{}, error) {
		lo, hi := ci*chunk, (ci+1)*chunk
		if hi > n {
			hi = n
		}
		var warm *socp.WarmStart
		for i := lo; i < hi && ctx.Err() == nil; i++ {
			r, w, err := runWarmJob(ctx, i, warm, fn)
			if err != nil {
				errs[i] = err
				warm = nil
				continue
			}
			results[i] = r
			warm = w
		}
		return struct{}{}, nil
	})
	// poolErr only carries context cancellation (the chunk closure never
	// fails itself; per-point failures and panics land in errs).
	if poolErr != nil {
		errs = append([]error{poolErr}, errs...)
	}
	return results, errors.Join(errs...)
}

// runWarmJob runs one warm-chained job with the same panic isolation
// RunSweep gives independent jobs: a panicking point fails only its own
// index (as a *JobPanicError) and the chunk continues cold.
func runWarmJob[T any](ctx context.Context, i int, warm *socp.WarmStart,
	fn func(ctx context.Context, i int, warm *socp.WarmStart) (T, *socp.WarmStart, error)) (r T, w *socp.WarmStart, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = &JobPanicError{Index: i, Value: rec, Stack: debug.Stack()}
		}
	}()
	r, w, err = fn(ctx, i, warm)
	if err != nil {
		err = &JobError{Index: i, Err: err}
	}
	return r, w, err
}
