package socp

import (
	"math/rand"
	"testing"
)

// TestPatternCacheFreeListBounds pins the free-list policy: a release
// always keeps its pipeline, so a pattern holds as many pipelines as it had
// in flight at once; past the byte budget the least recently released
// pattern loses its idle pipelines, and a pattern left with nothing idle
// and nothing in flight is forgotten. Hits and misses follow from the order
// of acquires and releases alone.
func TestPatternCacheFreeListBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var views []*sparseView
	for k := 0; k < 3; k++ {
		views = append(views, newSparseView(withCSR(randomProblem(rng, 6+k, 6, 1, 0.3, false))))
	}
	pc := NewPatternCache()
	want := func(hits, misses int64, entries int) {
		t.Helper()
		if h, m := pc.Stats(); h != hits || m != misses {
			t.Fatalf("hits=%d misses=%d, want %d/%d", h, m, hits, misses)
		}
		if len(pc.entries) != entries {
			t.Fatalf("%d entries, want %d", len(pc.entries), entries)
		}
	}

	// Three pipelines of one pattern in flight, more than any worker
	// bound: all three are kept and reacquired.
	fs := make([]*neFactor, 3)
	for i := range fs {
		fs[i] = pc.acquire(views[0], FactorSparse, 1)
	}
	for _, f := range fs {
		pc.release(f)
	}
	want(0, 3, 1)
	if pc.idleBytes != 3*fs[0].bytes || fs[0].bytes <= 0 {
		t.Fatalf("idle bytes %d, want 3·%d", pc.idleBytes, fs[0].bytes)
	}
	for i := range fs {
		if got := pc.acquire(views[0], FactorSparse, 1); got != fs[2-i] {
			t.Fatalf("reacquire %d did not return the most recently released pipeline", i)
		}
	}
	want(3, 3, 1)
	for _, f := range fs[1:] {
		pc.release(f)
	}
	pc.release(fs[0])

	// A budget that holds patterns 1 and 2: releasing them evicts pattern
	// 0, released least recently, and forgets it; patterns 1 and 2 hit.
	f1, f2 := pc.acquire(views[1], FactorSparse, 1), pc.acquire(views[2], FactorSparse, 1)
	pc.maxIdleBytes = f1.bytes + f2.bytes
	pc.release(f1)
	pc.release(f2)
	want(3, 5, 2)
	if pc.idleBytes != f1.bytes+f2.bytes {
		t.Fatalf("idle bytes %d, want %d", pc.idleBytes, f1.bytes+f2.bytes)
	}
	for _, sv := range views[1:] {
		pc.release(pc.acquire(sv, FactorSparse, 1))
	}
	want(5, 5, 2)

	// Pattern 0 is back as a new entry; pattern 1, now least recent, goes.
	pc.release(pc.acquire(views[0], FactorSparse, 1))
	want(5, 6, 2)
	if pc.tail == nil || pc.tail.matches(views[1].gs, nil, FactorSparse) {
		t.Fatal("pattern 1 still idle after eviction")
	}

	// A pattern still in flight keeps its entry when its idle pipelines
	// are evicted, so its release finds it.
	a, b := pc.acquire(views[2], FactorSparse, 1), pc.acquire(views[2], FactorSparse, 1)
	want(6, 7, 2)
	pc.maxIdleBytes = 0
	pc.release(a)
	want(6, 7, 1)
	pc.release(b)
	want(6, 7, 0)
	if pc.head != nil || pc.tail != nil || pc.idleBytes != 0 {
		t.Fatalf("empty cache keeps a recency list or %d idle bytes", pc.idleBytes)
	}
}
