package main

import (
	"sort"
	"sync"
	"time"
)

// refMS is the nominal time of one reference kernel run, about its time on
// the shared 2-core x86-64 host the bounds were measured on. Timed metrics
// are reported at this host speed.
const refMS = 1.0

// Sizes of the reference kernel: a refN×refN dense matrix product, a sort
// of refSort values and their insertion into an open-addressing table of
// refTable slots, and refChase steps through a random cycle of refCycle
// entries (2 MB, beyond the per-core caches).
const (
	refN     = 96
	refSort  = 1024
	refTable = 4096
	refChase = 2500
	refCycle = 1 << 19
)

// hostRef measures how fast the host runs right now. Other tenants of a
// shared host slow a process by up to about 2.5× in phases that last from
// milliseconds to minutes, which moves every timing far more than the
// program's own changes would. hostRef times a fixed stdlib-only reference
// kernel, which touches no repository code and allocates nothing, between
// the ops of a pass. The kernel mixes the kinds of work the solver does:
// dense floating point, sorting, hashing and dependent loads from memory;
// a dense product alone slows more than the solver when the host is busy.
// A host factor is refMS over the mean kernel time during a pass, or for
// a library op around it, and the timed metrics are the measured times
// multiplied by it: the time they would have taken at the nominal host
// speed.
//
// A nil hostRef samples nothing; its factor is 1.
type hostRef struct {
	a, b    []float64 // dense operands
	pool    []float64 // values to sort
	cycle   []int32   // a random cyclic permutation
	scratch chan *refScratch

	mu    sync.Mutex
	runs  int
	times []float64 // kernel times since the last interval call, ms
	sink  float64   // keeps the kernel's results live
}

// refScratch is the mutable state of one kernel run.
type refScratch struct {
	sorted []float64
	table  []uint64
}

// newHostRef returns a hostRef that up to concurrent goroutines sample at
// once.
func newHostRef(concurrent int) *hostRef {
	h := &hostRef{
		a:       make([]float64, refN*refN),
		b:       make([]float64, refN*refN),
		pool:    make([]float64, 3*refSort),
		cycle:   make([]int32, refCycle),
		scratch: make(chan *refScratch, concurrent),
	}
	for i := range h.a {
		h.a[i] = float64(i%17) / 17
		h.b[i] = float64(i%13) / 13
	}
	x := uint64(1)
	rnd := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x >> 11
	}
	for i := range h.pool {
		h.pool[i] = float64(rnd())
	}
	perm := make([]int32, refCycle)
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := int(rnd() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := range perm {
		h.cycle[perm[i]] = perm[(i+1)%refCycle]
	}
	for i := 0; i < concurrent; i++ {
		h.scratch <- &refScratch{sorted: make([]float64, refSort), table: make([]uint64, refTable)}
	}
	return h
}

// gap runs the kernel at least n times and for at least d, and returns
// their summed time in ms and their number.
func (h *hostRef) gap(n int, d time.Duration) (ms float64, runs int) {
	t0 := time.Now()
	for ; runs < n || time.Since(t0) < d; runs++ {
		ms += h.sample()
	}
	return ms, runs
}

// sample runs the kernel once, records its time and returns it in ms. It
// is safe for concurrent use by as many goroutines as newHostRef was
// given.
func (h *hostRef) sample() float64 {
	if h == nil {
		return 0
	}
	sc := <-h.scratch
	h.mu.Lock()
	run := h.runs
	h.runs++
	h.mu.Unlock()

	t0 := time.Now()
	var sum float64
	for i := 0; i < refN; i++ {
		var ci [refN]float64
		for k := 0; k < refN; k++ {
			aik := h.a[i*refN+k]
			bk := h.b[k*refN : (k+1)*refN]
			for j := range ci {
				ci[j] += aik * bk[j]
			}
		}
		sum += ci[i]
	}
	copy(sc.sorted, h.pool[run%3*refSort:])
	sort.Float64s(sc.sorted)
	clear(sc.table)
	for i, v := range sc.sorted {
		slot := (uint64(v) * 0x9E3779B97F4A7C15) >> 52
		for sc.table[slot] != 0 {
			slot = (slot + 1) % refTable
		}
		sc.table[slot] = uint64(i + 1)
	}
	p := int32(run % refCycle)
	for i := 0; i < refChase; i++ {
		p = h.cycle[p]
	}
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6

	h.scratch <- sc
	h.mu.Lock()
	h.times = append(h.times, ms)
	h.sink += sum + float64(p)
	h.mu.Unlock()
	return ms
}

// interval returns the host factor since the last call — refMS over the
// mean kernel time, 1 when there is none — and the milliseconds the kernel
// ran, and starts a new interval. The mean, not the median: an op's time
// sums the host's speed over the op, slow phases and stalls included.
func (h *hostRef) interval() (factor, kernelMS float64) {
	if h == nil {
		return 1, 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.times) == 0 {
		return 1, 0
	}
	for _, t := range h.times {
		kernelMS += t
	}
	factor = refMS * float64(len(h.times)) / kernelMS
	h.times = h.times[:0]
	return factor, kernelMS
}
