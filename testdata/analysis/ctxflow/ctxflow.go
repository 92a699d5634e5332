// Package ctxflow is a bbvet fixture: a function that accepts a
// context.Context must thread it (or a context derived from it) into every
// context-accepting call; fresh root contexts and never-threaded
// parameters are flagged.
package ctxflow

import (
	"context"
	"time"
)

func callee(ctx context.Context) error { return ctx.Err() }

func wrap(ctx context.Context, tag string) context.Context { _ = tag; return ctx }

// threaded passes the parameter straight through: legal.
func threaded(ctx context.Context) error {
	return callee(ctx)
}

// derived builds a child context from the parameter: legal.
func derived(ctx context.Context) error {
	child, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	return callee(child)
}

// helperDerived wraps through a user helper that takes and returns a
// context: still derived.
func helperDerived(ctx context.Context) error {
	return callee(wrap(ctx, "job"))
}

// smuggledBackground drops the caller's cancellation on the floor; the
// parameter also goes entirely unused, so both diagnostics fire.
func smuggledBackground(ctx context.Context) error { // want `ctx parameter ctx is never used`
	return callee(context.Background()) // want `context.Background passed to callee`
}

// smuggledTODO is the same bug wearing a different name.
func smuggledTODO(ctx context.Context) error { // want `ctx parameter ctx is never used`
	return callee(context.TODO()) // want `context.TODO passed to callee`
}

// underived threads a context, but one rooted at Background rather than
// at the parameter.
func underived(ctx context.Context) error { // want `ctx parameter ctx is never used`
	child, cancel := context.WithTimeout(context.Background(), time.Second) // want `context.Background passed to context.WithTimeout`
	defer cancel()
	return callee(child) // want `not derived from this function's ctx parameter`
}

// overwritten loses the derivation on one branch; ctx is bound to a fresh
// root somewhere in the function, so the call is rejected.
func overwritten(ctx context.Context, fresh bool) error {
	if fresh {
		ctx = context.Background()
	}
	return callee(ctx) // want `not derived from this function's ctx parameter`
}

// reassignedDerived narrows the context on a branch but stays derived on
// both paths: legal.
func reassignedDerived(ctx context.Context, bound bool) error {
	var cancel context.CancelFunc = func() {}
	if bound {
		ctx, cancel = context.WithTimeout(ctx, time.Second)
	}
	defer cancel()
	return callee(ctx)
}

// rebound binds a local to a fresh root and rebinds it to ctx before the
// call. Every path into the call carries ctx, but derivation is decided per
// variable, not per path: local is ever bound to Background, so it is
// rejected.
func rebound(ctx context.Context) error {
	local := context.Background()
	local = ctx
	return callee(local) // want `not derived from this function's ctx parameter`
}

// loopNarrowed narrows ctx on every pass of a loop. The loop-carried write
// is derived from ctx itself, so the call stays legal.
func loopNarrowed(ctx context.Context, n int, d time.Duration) error {
	for i := 0; i < n; i++ {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		err := callee(ctx)
		cancel()
		if err != nil {
			return err
		}
	}
	return nil
}

// neverThreaded accepts a context and calls context-accepting functions
// without ever using it.
func neverThreaded(ctx context.Context) error { // want `ctx parameter ctx is never used`
	other, cancel := context.WithCancel(context.Background()) // want `context.Background passed to context.WithCancel`
	defer cancel()
	return callee(other) // want `not derived from this function's ctx parameter`
}

// unusedButNothingToThread only does arithmetic; an unused context is an
// interface-conformance artifact, not a bug.
func unusedButNothingToThread(ctx context.Context, n int) int {
	return n * 2
}

// polled uses the context without threading it into a call: ctx.Err
// polling is a legitimate use, so no unused-parameter diagnostic (the
// method call on ctx has no context parameter slot).
func polled(ctx context.Context, n int) int {
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			return i
		}
	}
	return n
}

// closureThreaded launches per-index closures that shadow ctx with their
// own parameter — the nested literal is analyzed as its own flow.
func closureThreaded(ctx context.Context, n int) error {
	run := func(ctx context.Context, i int) error {
		_ = i
		return callee(ctx)
	}
	for i := 0; i < n; i++ {
		if err := run(ctx, i); err != nil {
			return err
		}
	}
	return nil
}

// closureSmuggled hides the root-context bug inside a nested literal; the
// literal inherits the enclosing seeds, so it is still caught.
func closureSmuggled(ctx context.Context) error { // want `ctx parameter ctx is never used`
	run := func() error {
		return callee(context.Background()) // want `context.Background passed to callee`
	}
	return run()
}

// allowed keeps a deliberate detach with a reasoned suppression: a cleanup
// task that must outlive the request context (the parameter is still
// consulted, so no unused diagnostic).
func allowed(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	//bbvet:allow ctxflow detach-on-purpose: cleanup must outlive the request
	return callee(context.Background())
}
