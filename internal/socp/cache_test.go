package socp

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/linalg"
)

// TestPatternHashIgnoresValues pins the cache-key contract: the hash folds
// the pattern only, so rewriting values must not change it, while any
// structural change must.
func TestPatternHashIgnoresValues(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := newSparseView(withCSR(randomProblem(rng, 12, 8, 2, 0.3))).gs
	h := patternHash(a)
	b := a.Clone()
	for i := range b.Val {
		b.Val[i] = rng.NormFloat64()
	}
	if patternHash(b) != h {
		t.Fatal("hash changed when only values changed")
	}
	// Drop the last entry: structure differs, hash must differ.
	nnz := len(a.ColIdx) - 1
	c := &linalg.SparseMatrix{Rows: a.Rows, Cols: a.Cols, RowPtr: append([]int(nil), a.RowPtr...)}
	c.ColIdx = append([]int(nil), a.ColIdx[:nnz]...)
	c.Val = append([]float64(nil), a.Val[:nnz]...)
	c.RowPtr[a.Rows] = nnz
	if patternHash(c) == h {
		t.Fatal("hash unchanged after structural change")
	}
}

// TestPatternCacheSharesOneAnalysis pins where a pattern's symbolic
// analysis lives: on its cache entry. Every pipeline of one entry — built
// by concurrent first acquires or by a later miss — shares one analysis,
// distinct patterns get distinct ones, and an entry the cache forgets takes
// its analysis with it, so reacquiring the pattern analyzes it afresh.
func TestPatternCacheSharesOneAnalysis(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	views := []*sparseView{
		newSparseView(withCSR(randomProblem(rng, 10, 8, 2, 0.3))),
		newSparseView(withCSR(longRowProblem(rng, 12, 8, 2))),
	}
	for _, backend := range []Factorization{FactorSparse, FactorSupernodal} {
		pc := NewPatternCache()

		// Eight concurrent first acquires of one pattern: eight pipelines,
		// one analysis.
		fs := make([]*neFactor, 8)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range fs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				fs[i] = pc.acquire(views[0], backend, 1)
			}(i)
		}
		close(start)
		wg.Wait()
		sym := fs[0].chol.Symbolic()
		if sym == nil {
			t.Fatalf("backend=%v: pipeline has no symbolic analysis", backend)
		}
		for i, f := range fs {
			if f.chol.Symbolic() != sym {
				t.Fatalf("backend=%v: concurrent acquire %d analyzed the pattern again", backend, i)
			}
		}
		// A miss after the first builds shares the analysis too.
		extra := pc.acquire(views[0], backend, 1)
		if extra.chol.Symbolic() != sym {
			t.Fatalf("backend=%v: a later miss analyzed the pattern again", backend)
		}
		if hits, misses := pc.Stats(); hits != 0 || misses != 9 {
			t.Fatalf("backend=%v: hits=%d misses=%d, want 0/9", backend, hits, misses)
		}

		other := pc.acquire(views[1], backend, 1)
		if other.chol.Symbolic() == sym {
			t.Fatalf("backend=%v: distinct patterns share a symbolic analysis", backend)
		}

		// With no idle budget every release evicts, and the entries go.
		pc.maxIdleBytes = 0
		for _, f := range append(fs, extra, other) {
			pc.release(f)
		}
		if len(pc.entries) != 0 {
			t.Fatalf("backend=%v: %d entries left after eviction", backend, len(pc.entries))
		}
		again := pc.acquire(views[0], backend, 1)
		if again.chol.Symbolic() == sym {
			t.Fatalf("backend=%v: a forgotten pattern's analysis outlived its entry", backend)
		}
		if again.chol.Symbolic().NNZL() != sym.NNZL() {
			t.Fatalf("backend=%v: fresh analysis has nnz(L) %d, want %d", backend, again.chol.Symbolic().NNZL(), sym.NNZL())
		}
	}
}

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
		views = append(views, newSparseView(withCSR(randomProblem(rng, 6+k, 6, 1, 0.3))))
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
	if pc.tail == nil || pc.tail.matches(views[1].gs, FactorSparse) {
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
