package socp

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/linalg"
)

// PatternCache shares the per-solve symbolic work of the sparse KKT
// pipeline across solves whose constraint matrices carry the same sparsity
// pattern. A sweep solves the same topology dozens of times — only bounds,
// weights, and the NT scaling values change — so the pattern-dependent
// setup (the AᵀA scatter plan for H = (W⁻¹G)ᵀ(W⁻¹G), the fill-reducing AMD
// ordering, the elimination tree, the symbolic factorization, and the
// KKT scatter maps) is identical at every point. The cache keeps released
// pipelines (neFactor) on a free list per pattern:
//
//   - a hit skips every symbolic step and goes straight to numeric
//     refactorization, allocation-free;
//   - a miss builds a new pipeline but shares the factorization's symbolic
//     analysis, which each pattern entry runs once, so concurrent first
//     solves of one pattern analyze it once. The analysis lives as long as
//     its entry.
//
// The free lists are plain mutex-guarded stacks, so whether an acquire hits
// depends only on the order of acquires and releases — never on which
// processor ran the goroutine or on garbage collection. A release always
// keeps its pipeline, so a pattern holds at most as many pipelines as it
// has had in flight at once, whatever the worker counts of the callers.
// All idle pipelines together are bounded by their estimated size,
// idleBudget bytes; past it, idle pipelines of the least recently released
// patterns are dropped, and a pattern with nothing idle and nothing in
// flight is forgotten. Least-recently-used eviction has a cliff: a stream
// that cycles through more patterns than the budget holds evicts each one
// just before it comes round again, and misses on every solve.
//
// Pooled pipelines carry no values from previous solves into new results:
// every numeric buffer a solve reads is fully rewritten before use (AᵀA
// values, KKT values, factor columns), so a pooled pipeline holds no
// per-problem state except its scheduling bound. Solves through a cache are
// bit-identical to solves without one.
//
// Keys are canonical hashes of the scaled-G pattern, verified
// entry-for-entry on every lookup, so hash collisions degrade to a miss
// rather than a wrong reuse. The zero value is not usable; call
// NewPatternCache. All methods are safe for concurrent use.
type PatternCache struct {
	maxIdleBytes int // bound on idleBytes, fixed at construction

	mu      sync.Mutex
	entries map[uint64][]*patternEntry
	// head and tail end the recency list of the entries that have idle
	// pipelines, most recently released first.
	head, tail *patternEntry
	idleBytes  int // footprint of the pipelines on all free lists

	hits   atomic.Int64
	misses atomic.Int64
}

// idleBudget bounds the estimated bytes (neFactor.footprint) of the idle
// pipelines a cache keeps. A pipeline of a bbserve-sized topology (6 jobs
// of 6 tasks) is estimated at 0.07 MB, one of chain-380 at 0.7 MB and one
// of dag-2000 at 6 MB (EXPERIMENTS.md §P10), so a daemon keeps hundreds of
// topologies warm; a single pipeline larger than the budget is never kept.
const idleBudget = 64 << 20

// patternEntry keeps the factorization pipelines of one (pattern, backend)
// pair and the symbolic analysis they share. The pattern copy rules out
// hash collisions; the backend is part of the
// identity because a pooled pipeline's numeric workspace is built for one
// factorization layout — a simplicial pipeline must never be handed to a
// solve that asked for the supernodal backend.
type patternEntry struct {
	h              uint64 // key of the entry in PatternCache.entries
	gsRows, gsCols int
	gsRowPtr       []int
	gsColIdx       []int
	backend        Factorization

	// sym is the symbolic analysis of the factored matrix, whose pattern
	// the scaled-G pattern fixes. The entry's first build runs it under symOnce;
	// every later build shares it. nil when the factorization has no
	// symbolic phase.
	symOnce sync.Once
	sym     *linalg.SymbolicFactor

	// free holds the idle pipelines, inFlight counts the acquired ones not
	// yet released, and prev/next link the entry into the cache's recency
	// list while free is non-empty. All are guarded by PatternCache.mu.
	free       []*neFactor
	inFlight   int
	prev, next *patternEntry
}

// NewPatternCache returns an empty cache.
func NewPatternCache() *PatternCache {
	return &PatternCache{
		entries:      map[uint64][]*patternEntry{},
		maxIdleBytes: idleBudget,
	}
}

// Stats reports the cache's lifetime hits (symbolic and numeric work
// skipped entirely) and misses (pipeline built; only the pattern's first
// build runs the factorization's symbolic analysis).
func (pc *PatternCache) Stats() (hits, misses int64) {
	return pc.hits.Load(), pc.misses.Load()
}

// key combines the canonical pattern hash of the scaled-G template with the
// resolved factorization backend.
func key(gs *linalg.SparseMatrix, backend Factorization) uint64 {
	const prime64 = 1099511628211
	return (patternHash(gs) ^ uint64(backend)) * prime64
}

// patternHash returns a canonical 64-bit hash of a matrix's sparsity
// pattern — shape, row pointers, and column indices; never the values. Two
// matrices with equal patterns hash equally on any platform and across
// process runs (the hash is a pure FNV-1a fold, no per-process seed).
//
//bbvet:hotpath
func patternHash(a *linalg.SparseMatrix) uint64 {
	const offset64 = 14695981039346656037
	h := uint64(offset64)
	h = fnvMix(h, uint64(a.Rows))
	h = fnvMix(h, uint64(a.Cols))
	for _, p := range a.RowPtr {
		h = fnvMix(h, uint64(p))
	}
	for _, c := range a.ColIdx {
		h = fnvMix(h, uint64(c))
	}
	return h
}

// fnvMix folds one value into an FNV-1a state, byte-wise.
//
//bbvet:hotpath
func fnvMix(h, v uint64) uint64 {
	const prime64 = 1099511628211
	h ^= v & 0xff
	h *= prime64
	h ^= (v >> 8) & 0xff
	h *= prime64
	h ^= (v >> 16) & 0xff
	h *= prime64
	h ^= (v >> 24) & 0xffff // rows/cols/indices fit well below 2⁴⁰
	h *= prime64
	return h
}

// matches reports whether the entry serves exactly this pattern on this
// backend.
//
//bbvet:hotpath
func (e *patternEntry) matches(gs *linalg.SparseMatrix, backend Factorization) bool {
	return e.backend == backend && gs.Rows == e.gsRows && gs.Cols == e.gsCols &&
		slices.Equal(gs.RowPtr, e.gsRowPtr) && slices.Equal(gs.ColIdx, e.gsColIdx)
}

// acquire returns a factorization pipeline for the view's pattern on the
// resolved backend: an idle one when the pattern has one (supernodal worker
// bound refreshed), otherwise a freshly built one registered under the
// pattern. The caller owns the pipeline until release.
//
//bbvet:hotpath
func (pc *PatternCache) acquire(sv *sparseView, backend Factorization, workers int) *neFactor {
	e, f := pc.take(sv.gs, backend)
	if f != nil {
		pc.hits.Add(1)
		// The worker bound is a per-solve setting, not part of the pooled
		// identity; refresh it (scheduling only — results never change).
		if sc, ok := f.chol.(*linalg.SupernodalCholesky); ok {
			sc.SetParallelism(workers)
		}
		return f
	}
	pc.misses.Add(1)
	return e.build(sv, backend, workers)
}

// build returns a new pipeline for the entry's pattern, registered
// under the entry. The entry's first build runs the symbolic analysis and
// keeps it; every other build, concurrent ones included, waits for that
// one and shares its analysis.
func (e *patternEntry) build(sv *sparseView, backend Factorization, workers int) *neFactor {
	var f *neFactor
	e.symOnce.Do(func() {
		f = newNEFactor(sv, nil, backend, workers)
		e.sym = f.chol.Symbolic()
	})
	if f == nil {
		f = newNEFactor(sv, e.sym, backend, workers)
	}
	f.cacheEntry = e
	return f
}

// take finds the entry of a pattern and backend, registering it on
// first sight, counts one more of its pipelines in flight, and pops its
// most recently released idle pipeline (nil when it has none).
//
//bbvet:hotpath
func (pc *PatternCache) take(gs *linalg.SparseMatrix, backend Factorization) (*patternEntry, *neFactor) {
	h := key(gs, backend)
	pc.mu.Lock()
	defer pc.mu.Unlock()
	e := pc.lookup(h, gs, backend)
	if e == nil {
		// Copy the pattern without holding the lock; a concurrent take of
		// the same pattern may register it first.
		pc.mu.Unlock()
		ne := newPatternEntry(h, gs, backend)
		pc.mu.Lock()
		if e = pc.lookup(h, gs, backend); e == nil {
			e = ne
			//bbvet:allow hotalloc first sighting of this pattern, measured cold
			pc.entries[h] = append(pc.entries[h], e)
		}
	}
	e.inFlight++
	return e, pc.pop(e)
}

// lookup returns the registered entry of a pattern and backend, nil when
// there is none. The caller holds pc.mu.
//
//bbvet:hotpath
func (pc *PatternCache) lookup(h uint64, gs *linalg.SparseMatrix, backend Factorization) *patternEntry {
	for _, e := range pc.entries[h] {
		if e.matches(gs, backend) {
			return e
		}
	}
	return nil
}

// newPatternEntry returns an entry for a pattern and backend, with a copy
// of the pattern for collision verification.
func newPatternEntry(h uint64, gs *linalg.SparseMatrix, backend Factorization) *patternEntry {
	return &patternEntry{
		h:      h,
		gsRows: gs.Rows, gsCols: gs.Cols,
		gsRowPtr: append([]int(nil), gs.RowPtr...),
		gsColIdx: append([]int(nil), gs.ColIdx...),
		backend:  backend,
	}
}

// pop takes the most recently released idle pipeline of e, nil when there
// is none. The caller holds pc.mu.
//
//bbvet:hotpath
func (pc *PatternCache) pop(e *patternEntry) *neFactor {
	k := len(e.free) - 1
	if k < 0 {
		return nil
	}
	f := e.free[k]
	e.free[k] = nil
	e.free = e.free[:k]
	pc.idleBytes -= f.bytes
	if k == 0 {
		pc.unlink(e)
	}
	return f
}

// release returns a pipeline acquired from this cache to its pattern's
// free list, then drops idle pipelines of the least recently released
// patterns while their footprint exceeds the budget. Pipelines built
// outside any cache (cacheEntry == nil) are ignored. The caller must not
// use f after releasing it.
//
//bbvet:hotpath
func (pc *PatternCache) release(f *neFactor) {
	if f == nil || f.cacheEntry == nil {
		return
	}
	e := f.cacheEntry
	pc.mu.Lock()
	defer pc.mu.Unlock()
	e.inFlight--
	if len(e.free) > 0 {
		pc.unlink(e)
	}
	//bbvet:allow hotalloc grows only to the pattern's peak number of pipelines in flight, then stays within capacity
	e.free = append(e.free, f)
	pc.idleBytes += f.bytes
	pc.pushFront(e)
	for pc.idleBytes > pc.maxIdleBytes {
		lru := pc.tail
		pc.pop(lru)
		if len(lru.free) == 0 && lru.inFlight == 0 {
			pc.forget(lru)
		}
	}
}

// pushFront links e at the head of the recency list. The caller holds
// pc.mu.
//
//bbvet:hotpath
func (pc *PatternCache) pushFront(e *patternEntry) {
	e.prev, e.next = nil, pc.head
	if pc.head != nil {
		pc.head.prev = e
	} else {
		pc.tail = e
	}
	pc.head = e
}

// unlink removes e from the recency list. The caller holds pc.mu.
//
//bbvet:hotpath
func (pc *PatternCache) unlink(e *patternEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		pc.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		pc.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// forget removes an entry with no pipelines left from the index, so a
// long tail of one-off patterns does not accumulate. The caller holds
// pc.mu.
func (pc *PatternCache) forget(e *patternEntry) {
	es := pc.entries[e.h]
	for i, x := range es {
		if x == e {
			last := len(es) - 1
			es[i], es[last] = es[last], nil
			es = es[:last]
			break
		}
	}
	if len(es) == 0 {
		delete(pc.entries, e.h)
	} else {
		pc.entries[e.h] = es
	}
}
