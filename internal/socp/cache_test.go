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
	a := testView(withCSR(randomProblem(rng, 12, 8, 2, 0.3))).gs
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
// by concurrent first solves or by a later miss — shares one analysis,
// distinct patterns get distinct ones, and an entry the cache forgets takes
// its analysis with it, so reacquiring the pattern analyzes it afresh.
func TestPatternCacheSharesOneAnalysis(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	probs := []*Problem{
		withCSR(randomProblem(rng, 10, 8, 2, 0.3)),
		withCSR(longRowProblem(rng, 12, 8, 2)),
	}
	for _, backend := range []Factorization{FactorSparse, FactorSupernodal} {
		pc := NewPatternCache()

		// Eight concurrent first acquires of one pattern: eight spaces,
		// one analysis.
		sps := make([]*space, 8)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range sps {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				sps[i] = acquirePipeline(pc, probs[0], backend, 1)
			}(i)
		}
		close(start)
		wg.Wait()
		sym := sps[0].ne.chol.Symbolic()
		if sym == nil {
			t.Fatalf("backend=%v: pipeline has no symbolic analysis", backend)
		}
		for i, sp := range sps {
			if sp.ne.chol.Symbolic() != sym {
				t.Fatalf("backend=%v: concurrent acquire %d analyzed the pattern again", backend, i)
			}
		}
		// A miss after the first builds shares the analysis too.
		extra := acquirePipeline(pc, probs[0], backend, 1)
		if extra.ne.chol.Symbolic() != sym {
			t.Fatalf("backend=%v: a later miss analyzed the pattern again", backend)
		}
		if hits, misses := pc.Stats(); hits != 0 || misses != 9 {
			t.Fatalf("backend=%v: hits=%d misses=%d, want 0/9", backend, hits, misses)
		}

		other := acquirePipeline(pc, probs[1], backend, 1)
		if other.ne.chol.Symbolic() == sym {
			t.Fatalf("backend=%v: distinct patterns share a symbolic analysis", backend)
		}

		// With no idle budget every release evicts, and the entries go.
		pc.maxIdleBytes = 0
		for _, sp := range append(sps, extra, other) {
			pc.release(sp)
		}
		if len(pc.entries) != 0 {
			t.Fatalf("backend=%v: %d entries left after eviction", backend, len(pc.entries))
		}
		again := acquirePipeline(pc, probs[0], backend, 1)
		if again.ne.chol.Symbolic() == sym {
			t.Fatalf("backend=%v: a forgotten pattern's analysis outlived its entry", backend)
		}
		if again.ne.chol.Symbolic().NNZL() != sym.NNZL() {
			t.Fatalf("backend=%v: fresh analysis has nnz(L) %d, want %d", backend, again.ne.chol.Symbolic().NNZL(), sym.NNZL())
		}
	}
}

// TestPatternCacheKeysOnDims: two problems with one G pattern but
// different cone dims are different keys, so neither is served the
// other's space.
func TestPatternCacheKeysOnDims(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := withCSR(randomProblem(rng, 8, 6, 2, 0.4)) // 6 orthant rows, two 3-row cones
	b := *a
	b.Dims.NonNeg, b.Dims.SOC = a.Dims.NonNeg+3, a.Dims.SOC[1:]
	pc := NewPatternCache()
	sa := acquirePipeline(pc, a, FactorSparse, 1)
	pc.release(sa)
	sb := acquirePipeline(pc, &b, FactorSparse, 1)
	if sb == sa {
		t.Fatal("a space of one cone was served to a problem of another")
	}
	if got := len(sb.sv.socs); got != len(b.Dims.SOC) {
		t.Fatalf("space has %d SOC blocks, want %d", got, len(b.Dims.SOC))
	}
	if hits, misses := pc.Stats(); hits != 0 || misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 0/2", hits, misses)
	}
}

// TestPatternCacheFreeListBounds pins the free-list policy: a release
// always keeps its space, so a pattern holds as many spaces as it had in
// flight at once; past the byte budget the least recently released
// pattern loses its idle spaces, and a pattern left with nothing idle and
// nothing in flight is forgotten. Hits and misses follow from the order of
// acquires and releases alone.
func TestPatternCacheFreeListBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var probs []*Problem
	for k := 0; k < 3; k++ {
		probs = append(probs, withCSR(randomProblem(rng, 6+k, 6, 1, 0.3)))
	}
	pc := NewPatternCache()
	acquire := func(k int) *space { return acquirePipeline(pc, probs[k], FactorSparse, 1) }
	want := func(hits, misses int64, entries int) {
		t.Helper()
		if h, m := pc.Stats(); h != hits || m != misses {
			t.Fatalf("hits=%d misses=%d, want %d/%d", h, m, hits, misses)
		}
		if len(pc.entries) != entries {
			t.Fatalf("%d entries, want %d", len(pc.entries), entries)
		}
	}

	// Three spaces of one pattern in flight, more than any worker bound:
	// all three are kept and reacquired.
	sps := make([]*space, 3)
	for i := range sps {
		sps[i] = acquire(0)
	}
	for _, sp := range sps {
		pc.release(sp)
	}
	want(0, 3, 1)
	if pc.idleBytes != 3*sps[0].bytes || sps[0].bytes <= sps[0].ne.bytes {
		t.Fatalf("idle bytes %d, want 3·%d, more than the pipeline's %d", pc.idleBytes, sps[0].bytes, sps[0].ne.bytes)
	}
	for i := range sps {
		if got := acquire(0); got != sps[2-i] {
			t.Fatalf("reacquire %d did not return the most recently released space", i)
		}
	}
	want(3, 3, 1)
	for _, sp := range sps[1:] {
		pc.release(sp)
	}
	pc.release(sps[0])

	// A budget that holds patterns 1 and 2: releasing them evicts pattern
	// 0, released least recently, and forgets it; patterns 1 and 2 hit.
	s1, s2 := acquire(1), acquire(2)
	pc.maxIdleBytes = s1.footprint() + s2.footprint()
	pc.release(s1)
	pc.release(s2)
	want(3, 5, 2)
	if pc.idleBytes != s1.bytes+s2.bytes {
		t.Fatalf("idle bytes %d, want %d", pc.idleBytes, s1.bytes+s2.bytes)
	}
	for k := 1; k <= 2; k++ {
		pc.release(acquire(k))
	}
	want(5, 5, 2)

	// Pattern 0 is back as a new entry; pattern 1, now least recent, goes.
	pc.release(acquire(0))
	want(5, 6, 2)
	if pc.tail == nil || pc.tail.matches(probs[1].GSparse, probs[1].Dims, FactorSparse) {
		t.Fatal("pattern 1 still idle after eviction")
	}

	// A pattern still in flight keeps its entry when its idle spaces are
	// evicted, so its release finds it.
	a, b := acquire(2), acquire(2)
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
