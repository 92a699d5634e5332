package faultinject

import (
	"errors"
	"math"
	"sync"
	"testing"
)

func TestDisabledIsNoop(t *testing.T) {
	if Enabled() {
		t.Fatal("no plan active, Enabled() = true")
	}
	if err := Hit("some/site"); err != nil {
		t.Fatalf("Hit with no plan: %v", err)
	}
	v := []float64{1, 2}
	if err := HitData("some/site", v); err != nil || v[0] != 1 {
		t.Fatalf("HitData with no plan: %v, data %v", err, v)
	}
}

func TestErrorAfterCount(t *testing.T) {
	defer Activate(Rule{Site: "s", Kind: KindError, After: 2, Count: 2})()
	var fired []int
	for i := 0; i < 6; i++ {
		if err := Hit("s"); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("hit %d: error does not wrap ErrInjected: %v", i, err)
			}
			fired = append(fired, i)
		}
	}
	if len(fired) != 2 || fired[0] != 2 || fired[1] != 3 {
		t.Fatalf("After=2 Count=2 fired on hits %v, want [2 3]", fired)
	}
}

func TestPerSiteCounters(t *testing.T) {
	defer Activate(
		Rule{Site: "a", Kind: KindError, After: 1, Count: 1},
		Rule{Site: "b", Kind: KindError, Count: 1},
	)()
	if err := Hit("b"); err == nil {
		t.Fatal("site b hit 0 should fire")
	}
	if err := Hit("a"); err != nil {
		t.Fatal("site a hit 0 should not fire (After=1)")
	}
	if err := Hit("a"); err == nil {
		t.Fatal("site a hit 1 should fire despite b's earlier hit")
	}
}

func TestCorruptNaN(t *testing.T) {
	defer Activate(Rule{Site: SiteKKTRHS, Kind: KindNaN, Count: 1})()
	v := []float64{1, 2, 3}
	if err := HitData(SiteKKTRHS, v); err != nil {
		t.Fatalf("a NaN rule returned %v", err)
	}
	for i, x := range v {
		if !math.IsNaN(x) {
			t.Fatalf("v[%d] = %v, want NaN", i, x)
		}
	}
	w := []float64{4}
	if err := HitData(SiteKKTRHS, w); err != nil || math.IsNaN(w[0]) {
		t.Fatal("Count=1 rule fired twice")
	}
}

func TestHitDataErrorLeavesData(t *testing.T) {
	defer Activate(Rule{Site: "s", Kind: KindError})()
	v := []float64{1}
	if err := HitData("s", v); !errors.Is(err, ErrInjected) || v[0] != 1 {
		t.Fatalf("KindError rule at a data site: %v, data %v; want the injected error and intact data", err, v)
	}
}

func TestPanic(t *testing.T) {
	defer Activate(Rule{Site: "p", Kind: KindPanic, Count: 1})()
	defer func() {
		if recover() == nil {
			t.Fatal("KindPanic rule did not panic")
		}
	}()
	_ = Hit("p")
}

func TestStallGate(t *testing.T) {
	gate := make(chan struct{})
	stalled := make(chan struct{})
	deactivate := Activate(Rule{Site: "st", Kind: KindStall, Count: 1, Gate: gate, Stalled: stalled})
	defer deactivate()
	done := make(chan struct{})
	go func() {
		_ = Hit("st")
		close(done)
	}()
	<-stalled // the victim is blocked on the gate
	select {
	case <-done:
		t.Fatal("Hit returned before the gate was closed")
	default:
	}
	close(gate)
	<-done
}

func TestConcurrentHitsAreSafe(t *testing.T) {
	defer Activate(Rule{Site: "c", Kind: KindError, Count: 10})()
	var wg sync.WaitGroup
	var mu sync.Mutex
	total := 0
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			for i := 0; i < 100; i++ {
				if Hit("c") != nil {
					n++
				}
			}
			mu.Lock()
			total += n
			mu.Unlock()
		}()
	}
	wg.Wait()
	if total != 10 {
		t.Fatalf("Count=10 rule fired %d times under concurrency", total)
	}
}

func TestDeactivateRestores(t *testing.T) {
	deactivate := Activate(Rule{Site: "d", Kind: KindError})
	if !Enabled() {
		t.Fatal("Activate did not enable")
	}
	deactivate()
	if Enabled() {
		t.Fatal("deactivate did not disable")
	}
	if err := Hit("d"); err != nil {
		t.Fatal("rule fired after deactivation")
	}
}
