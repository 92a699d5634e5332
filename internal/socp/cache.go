package socp

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/cone"
	"repro/internal/linalg"
)

// PatternCache pools whole solve spaces across solves whose constraint
// matrices carry the same sparsity pattern. A sweep solves the same
// topology dozens of times — only bounds, weights, and the NT scaling
// values change — so everything a solve allocates is sized by G's pattern,
// the cone dims and the factorization backend alone, and the cache keeps it
// (a space) on a free list per (pattern, dims, backend) key:
//
//   - the equilibration buffers: scaled c, G values, h and row scales;
//   - the sparse view: the W⁻¹G pattern and values, the SOC block
//     templates and the split lists;
//   - the factorization pipeline (neFactor): the AᵀA scatter plan, the
//     KKT scatter maps and the numeric factor, bound to the symbolic
//     analysis (AMD ordering, elimination tree, symbolic factorization);
//   - the NT scaling's storage, the warm-start buffers, the iterates and
//     every iteration buffer.
//
// A solve on a pooled space allocates only its Solution and the Solution's
// X, S and Z, which never alias pooled storage. Hits and misses are counted
// at a solve's first factorization:
//
//   - a hit is a pooled space that already holds its pipeline: the solve
//     skips the view's pattern build and every symbolic step, and goes
//     straight to numeric refactorization, allocation-free;
//   - a miss builds the pipeline but shares the factorization's symbolic
//     analysis, which each pattern entry runs once, so concurrent first
//     solves of one pattern analyze it once. The analysis lives as long as
//     its entry.
//
// A solve that ends before it factors (a warm start that already meets the
// tolerances) counts neither.
//
// The free lists are plain mutex-guarded stacks, so whether an acquire hits
// depends only on the order of acquires and releases — never on which
// processor ran the goroutine or on garbage collection. A release always
// keeps its space, so a pattern holds at most as many spaces as it has had
// in flight at once, whatever the worker counts of the callers. All idle
// spaces together are bounded by their estimated size (space.footprint),
// idleBudget bytes; past it, idle spaces of the least recently released
// patterns are dropped, and a pattern with nothing idle and nothing in
// flight is forgotten. Least-recently-used eviction has a cliff: a stream
// that cycles through more patterns than the budget holds evicts each one
// just before it comes round again, and misses on every solve.
//
// Pooled spaces carry no values from previous solves into new results:
// every buffer a solve reads is rewritten before use, and an idle space
// holds no reference to a caller's problem, options or solution. Solves
// through a cache are bit-identical to solves without one.
//
// Keys are canonical hashes of G's pattern and the cone dims, verified
// entry-for-entry on every lookup, so hash collisions degrade to a miss
// rather than a wrong reuse. The zero value is not usable; call
// NewPatternCache. All methods are safe for concurrent use, and a nil
// *PatternCache is an uncached solve's: acquire builds a fresh space and
// release drops it.
type PatternCache struct {
	maxIdleBytes int // bound on idleBytes, fixed at construction

	mu      sync.Mutex
	entries map[uint64][]*patternEntry
	// head and tail end the recency list of the entries that have idle
	// spaces, most recently released first.
	head, tail *patternEntry
	idleBytes  int // footprint of the spaces on all free lists

	hits   atomic.Int64
	misses atomic.Int64
}

// idleBudget bounds the estimated bytes (space.footprint) of the idle
// spaces a cache keeps. The space of a bbserve-sized topology (6 jobs of 6
// tasks) is estimated at 0.18 MB, one of chain-380 at 1.9 MB and one of
// dag-2000 at 13 MB, two to three times their pipelines (EXPERIMENTS.md
// §P20), so a daemon keeps hundreds of topologies warm; a single space
// larger than the budget is never kept.
const idleBudget = 64 << 20

// patternEntry keeps the solve spaces of one (pattern, dims, backend) key
// and the symbolic analysis their pipelines share. The copies of the
// pattern and the dims rule out hash collisions and are what the entry's
// spaces read; the backend is part of the identity because a pooled
// pipeline's numeric workspace is built for one factorization layout — a
// simplicial space must never be handed to a solve that asked for the
// supernodal backend.
type patternEntry struct {
	h       uint64               // key of the entry in PatternCache.entries
	pat     *linalg.SparseMatrix // G's shape, RowPtr and ColIdx; no values
	dims    cone.Dims
	backend Factorization
	// splitAt is maxNormalEqRow when the entry was made; the split rows,
	// and with them the pipeline's shape, depend on it.
	splitAt int

	// sym is the symbolic analysis of the factored matrix, whose pattern
	// the entry's key fixes. The entry's first pipeline build runs it under
	// symOnce; every later build shares it. nil when the factorization has
	// no symbolic phase.
	symOnce sync.Once
	sym     *linalg.SymbolicFactor

	// free holds the idle spaces, inFlight counts the acquired ones not
	// yet released, and prev/next link the entry into the cache's recency
	// list while free is non-empty. All are guarded by PatternCache.mu.
	free       []*space
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

// Stats reports the cache's lifetime hits (a solve's first factorization
// found its space's pipeline built: symbolic and numeric setup skipped) and
// misses (pipeline built; only the pattern's first build runs the
// factorization's symbolic analysis).
func (pc *PatternCache) Stats() (hits, misses int64) {
	return pc.hits.Load(), pc.misses.Load()
}

// key combines the canonical pattern hash of G with the cone dims and the
// resolved factorization backend.
func key(g *linalg.SparseMatrix, dims cone.Dims, backend Factorization) uint64 {
	const prime64 = 1099511628211
	h := fnvMix(patternHash(g), uint64(dims.NonNeg))
	for _, q := range dims.SOC {
		h = fnvMix(h, uint64(q))
	}
	return (h ^ uint64(backend)) * prime64
}

// patternHash returns a canonical 64-bit hash of a matrix's sparsity
// pattern — shape, row pointers, and column indices; never the values. Two
// matrices with equal patterns hash equally on any platform and across
// process runs (the hash is a pure FNV-1a fold, no per-process seed).
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

// matches reports whether the entry serves exactly this pattern, cone and
// backend.
func (e *patternEntry) matches(g *linalg.SparseMatrix, dims cone.Dims, backend Factorization) bool {
	return e.backend == backend && e.splitAt == maxNormalEqRow &&
		g.Rows == e.pat.Rows && g.Cols == e.pat.Cols &&
		dims.NonNeg == e.dims.NonNeg && slices.Equal(dims.SOC, e.dims.SOC) &&
		slices.Equal(g.RowPtr, e.pat.RowPtr) && slices.Equal(g.ColIdx, e.pat.ColIdx)
}

// acquire returns a solve space for G's pattern, the cone dims and the
// resolved backend: an idle one when the key has one, otherwise a fresh one
// registered under the key. The caller owns the space until release. On a
// nil cache it returns a fresh space that shares g's pattern arrays.
func (pc *PatternCache) acquire(g *linalg.SparseMatrix, dims cone.Dims, backend Factorization) *space {
	if pc == nil {
		return newSpace(g, dims, backend)
	}
	e, sp := pc.take(g, dims, backend)
	if sp == nil {
		sp = newSpace(e.pat, e.dims, backend)
		sp.pc, sp.entry = pc, e
	}
	return sp
}

// build returns a new pipeline for a space of the entry. The entry's first
// build runs the symbolic analysis and keeps it; every other build,
// concurrent ones included, waits for that one and shares its analysis.
func (e *patternEntry) build(sv *sparseView, backend Factorization, workers int) *neFactor {
	var f *neFactor
	e.symOnce.Do(func() {
		f = newNEFactor(sv, nil, backend, workers)
		e.sym = f.chol.Symbolic()
	})
	if f == nil {
		f = newNEFactor(sv, e.sym, backend, workers)
	}
	return f
}

// take finds the entry of a key, registering it on first sight, counts one
// more of its spaces in flight, and pops its most recently released idle
// space (nil when it has none).
func (pc *PatternCache) take(g *linalg.SparseMatrix, dims cone.Dims, backend Factorization) (*patternEntry, *space) {
	h := key(g, dims, backend)
	pc.mu.Lock()
	defer pc.mu.Unlock()
	e := pc.lookup(h, g, dims, backend)
	if e == nil {
		// Copy the pattern without holding the lock; a concurrent take of
		// the same key may register it first.
		pc.mu.Unlock()
		ne := newPatternEntry(h, g, dims, backend)
		pc.mu.Lock()
		if e = pc.lookup(h, g, dims, backend); e == nil {
			e = ne
			pc.entries[h] = append(pc.entries[h], e)
		}
	}
	e.inFlight++
	return e, pc.pop(e)
}

// lookup returns the registered entry of a key, nil when there is none.
// The caller holds pc.mu.
func (pc *PatternCache) lookup(h uint64, g *linalg.SparseMatrix, dims cone.Dims, backend Factorization) *patternEntry {
	for _, e := range pc.entries[h] {
		if e.matches(g, dims, backend) {
			return e
		}
	}
	return nil
}

// newPatternEntry returns an entry for a key, with copies of the pattern
// and the dims for collision verification and for its spaces to share.
func newPatternEntry(h uint64, g *linalg.SparseMatrix, dims cone.Dims, backend Factorization) *patternEntry {
	return &patternEntry{
		h: h,
		pat: &linalg.SparseMatrix{
			Rows: g.Rows, Cols: g.Cols,
			RowPtr: slices.Clone(g.RowPtr),
			ColIdx: slices.Clone(g.ColIdx),
		},
		dims:    cone.Dims{NonNeg: dims.NonNeg, SOC: slices.Clone(dims.SOC)},
		backend: backend,
		splitAt: maxNormalEqRow,
	}
}

// pop takes the most recently released idle space of e, nil when there is
// none. The caller holds pc.mu.
func (pc *PatternCache) pop(e *patternEntry) *space {
	k := len(e.free) - 1
	if k < 0 {
		return nil
	}
	sp := e.free[k]
	e.free[k] = nil
	e.free = e.free[:k]
	pc.idleBytes -= sp.bytes
	if k == 0 {
		pc.unlink(e)
	}
	return sp
}

// release returns a space acquired from this cache to its key's free list,
// then drops idle spaces of the least recently released patterns while
// their footprint exceeds the budget. On a nil cache it does nothing. The
// caller must not use sp after releasing it.
func (pc *PatternCache) release(sp *space) {
	if pc == nil {
		return
	}
	e := sp.entry
	sp.bytes = sp.footprint()
	pc.mu.Lock()
	defer pc.mu.Unlock()
	e.inFlight--
	if len(e.free) > 0 {
		pc.unlink(e)
	}
	e.free = append(e.free, sp)
	pc.idleBytes += sp.bytes
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

// forget removes an entry with no spaces left from the index, so a
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
