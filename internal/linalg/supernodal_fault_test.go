package linalg

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/faultinject"
)

// supernodalFaultFixture builds a matrix large enough to cross the
// parallel-scheduling threshold, so panel faults land on pool workers.
func supernodalFaultFixture(t *testing.T) (*SparseMatrix, *SymbolicFactor) {
	t.Helper()
	rng := rand.New(rand.NewSource(53))
	_, as := randomSparseSPD(rng, 400, 0.01)
	sym := Analyze(as, nil)
	if ns := sym.Supernodal().ns; ns < minParallelSupernodes {
		t.Fatalf("fixture too small: %d supernodes", ns)
	}
	return as, sym
}

// TestSupernodalPanelInjectedError: an injected error inside the panel loop
// must surface as ErrInjected from Factorize without consuming shift
// retries, on both the serial and the parallel path.
func TestSupernodalPanelInjectedError(t *testing.T) {
	as, sym := supernodalFaultFixture(t)
	for _, workers := range []int{1, 4} {
		defer faultinject.Activate(faultinject.Rule{
			Site: faultinject.SiteSupernodalPanel, Kind: faultinject.KindError, Count: 1,
		})()
		sc := sym.NewSupernodal(workers)
		err := sc.Factorize(as, 0, 1e-10)
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("workers=%d: want injected error, got %v", workers, err)
		}
		// The injected failure must not be misread as a numeric breakdown:
		// the retry budget is untouched and the next attempt succeeds.
		if err := sc.Factorize(as, 0, 1e-10); err != nil {
			t.Fatalf("workers=%d: recovery factorization failed: %v", workers, err)
		}
		if sc.Shift() != 0 {
			t.Fatalf("workers=%d: clean refactorization picked up a shift %g", workers, sc.Shift())
		}
	}
}

// TestSupernodalPanelNaN: NaN corruption of one assembled panel must read as
// a numeric breakdown — the attempt fails, the shift-escalation retry kicks
// in, and the rerun (rule exhausted) succeeds with a recorded shift.
func TestSupernodalPanelNaN(t *testing.T) {
	as, sym := supernodalFaultFixture(t)
	defer faultinject.Activate(faultinject.Rule{
		Site: faultinject.SiteSupernodalPanel, Kind: faultinject.KindNaN, Count: 1,
	})()
	sc := sym.NewSupernodal(4)
	if err := sc.Factorize(as, 0, 1e-10); err != nil {
		t.Fatalf("NaN attempt should be absorbed by the retry: %v", err)
	}
	if sc.Shift() <= 0 {
		t.Fatalf("retry after NaN breakdown should record a shift, got %g", sc.Shift())
	}
}

// TestSupernodalPanelNaNExhausted: persistent NaN corruption must exhaust
// the retries and fail, and must fail the quasi-definite path outright (NaN
// is its only failure mode).
func TestSupernodalPanelNaNExhausted(t *testing.T) {
	as, sym := supernodalFaultFixture(t)
	defer faultinject.Activate(faultinject.Rule{
		Site: faultinject.SiteSupernodalPanel, Kind: faultinject.KindNaN,
	})()
	sc := sym.NewSupernodal(4)
	if err := sc.Factorize(as, 0, 1e-10); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("want ErrNotPositiveDefinite after retry exhaustion, got %v", err)
	}
	if err := sc.FactorizeQuasiDef(as, 1e-10); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("quasi-definite NaN breakdown: want ErrNotPositiveDefinite, got %v", err)
	}
}

// TestSupernodalPanelPanic: a panic on a pool worker must be captured, the
// pool drained, and the panic re-raised on the caller's goroutine.
func TestSupernodalPanelPanic(t *testing.T) {
	as, sym := supernodalFaultFixture(t)
	for _, workers := range []int{1, 4} {
		defer faultinject.Activate(faultinject.Rule{
			Site: faultinject.SiteSupernodalPanel, Kind: faultinject.KindPanic, Count: 1,
		})()
		sc := sym.NewSupernodal(workers)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("workers=%d: panel panic did not propagate", workers)
				}
			}()
			_ = sc.Factorize(as, 0, 1e-10)
		}()
		// The workspace must stay usable after the panic.
		if err := sc.Factorize(as, 0, 1e-10); err != nil {
			t.Fatalf("workers=%d: factorization after panic failed: %v", workers, err)
		}
	}
}

// TestSupernodalPanelStall: a stalled worker blocks the factorization until
// the test releases the gate; the result afterwards is still correct.
func TestSupernodalPanelStall(t *testing.T) {
	as, sym := supernodalFaultFixture(t)
	gate := make(chan struct{})
	stalled := make(chan struct{})
	defer faultinject.Activate(faultinject.Rule{
		Site: faultinject.SiteSupernodalPanel, Kind: faultinject.KindStall, Count: 1,
		Gate: gate, Stalled: stalled,
	})()
	sc := sym.NewSupernodal(4)
	done := make(chan error, 1)
	go func() { done <- sc.Factorize(as, 0, 1e-10) }()
	<-stalled
	select {
	case err := <-done:
		t.Fatalf("factorization finished despite a stalled worker: %v", err)
	default:
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("factorization after release failed: %v", err)
	}
}
