// Package faultinject is the deterministic, test-only fault-injection hook
// behind the resilience layer: production code declares named fault sites at
// the points where the real world can break (factorization breakdown, NaNs
// on the KKT right-hand side, sweep workers that stall or panic), and tests
// activate rules that force those breakages on demand.
//
// Design constraints, in order:
//
//   - Zero cost when idle. With no active plan every site check is a single
//     atomic pointer load and no allocation, so the hooks are safe inside
//     //bbvet:hotpath functions.
//   - Deterministic. A rule fires on exact hit numbers of its site
//     (After/Count), and each site keeps its own counter, so which hits fire
//     does not depend on goroutine interleaving across sites. Probabilistic
//     rules derive their decision from a splitmix64 hash of (seed, site,
//     hit index) — a pure function, reproducible across runs and platforms.
//   - Test-only. Nothing in this package is wired to flags or environment
//     variables; the only way to activate a plan is the Activate call, which
//     only test code makes.
//
// Sites are identified by the exported Site* constants so tests and
// production code cannot drift apart on naming.
package faultinject

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
)

// Fault sites declared by the production code. Keeping the registry here
// (rather than in each package) gives tests one place to discover what can
// be broken.
const (
	// SiteSparseLDLT fires inside linalg.SparseCholesky.Factorize and
	// FactorizeQuasiDef (the sparse simplicial pipeline), and at the entry of
	// the supernodal equivalents, so ladder tests can break either backend
	// with one rule.
	SiteSparseLDLT = "linalg/sparse-ldlt"
	// SiteSupernodalPanel fires inside the supernodal factorization's
	// per-panel loop — once per supernode, on whichever worker owns it — and
	// doubles as a NaN-corruption site for the assembled panel. Error and
	// panic kinds exercise the parallel scheduler's abort and panic-capture
	// paths; stall exercises a worker blocked mid-factorization.
	SiteSupernodalPanel = "linalg/supernodal-panel"
	// SiteKKTRHS is a NaN-injection site on the KKT right-hand side inside
	// the socp solver's factored solve.
	SiteKKTRHS = "socp/kkt-rhs"
	// SiteIPMIteration fires at the top of every interior-point iteration,
	// after the cancellation check (stall/panic sites for deadline tests).
	SiteIPMIteration = "socp/ipm-iteration"
	// SiteServeEnqueue fires in bbserve's admission path, synchronously in
	// the request handler immediately after its job enters the bounded
	// queue and before the handler starts waiting for the result. Stall
	// rules on it are the rendezvous the serve tests use to hold accepted
	// requests in the queue while filling it to the brim; error rules
	// exercise the handler's injected-failure response.
	SiteServeEnqueue = "serve/enqueue"
	// SiteServeJob fires on a serve worker goroutine at the start of job
	// execution, before the solver runs. Error rules exercise the injected
	// internal-failure response, panic rules the per-job panic isolation,
	// and stall rules park a worker mid-job for queue-full and drain tests.
	SiteServeJob = "serve/job"
)

// SiteSweepJob returns the per-index fault site of a core.RunSweep job; the
// index makes injection deterministic under parallel scheduling.
func SiteSweepJob(i int) string {
	return "core/sweep-job/" + strconv.Itoa(i)
}

// Kind classifies what a matched rule does to the calling site.
type Kind int

const (
	// KindError makes Hit return an injected error.
	KindError Kind = iota
	// KindNaN makes CorruptNaN overwrite the site's float data with NaN.
	KindNaN
	// KindPanic makes Hit panic (for exercising panic isolation).
	KindPanic
	// KindStall makes Hit block until the rule's Gate channel is closed
	// (for exercising cancellation without sleeping in tests).
	KindStall
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindNaN:
		return "nan"
	case KindPanic:
		return "panic"
	case KindStall:
		return "stall"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ErrInjected is the sentinel wrapped by every injected error; tests and the
// recovery ladder can detect synthetic failures with errors.Is.
var ErrInjected = errors.New("injected fault")

// Rule arms one fault site. The zero Count means "fire on every matching
// hit"; After skips the first After hits of the site (hit numbering is
// per-site, starting at 0). When Prob is in (0,1) the rule additionally
// fires only on hits selected by the seeded per-site hash — still
// deterministic for a fixed Seed.
type Rule struct {
	Site  string
	Kind  Kind
	After int // skip the first After hits of this site
	Count int // fire at most Count times; 0 = unlimited

	// Prob, when in (0,1), gates each eligible hit on a pure hash of
	// (Seed, Site, hit index). Outside (0,1) the rule fires on every
	// eligible hit.
	Prob float64
	Seed uint64

	// Gate is required for KindStall: the stalled call blocks until Gate is
	// closed. Closing the gate is the test's way of releasing the victim.
	Gate chan struct{}
	// Stalled, optional for KindStall: closed exactly once when a call
	// first blocks on the gate, so tests can rendezvous without polling.
	Stalled chan struct{}
}

// rule is a compiled Rule with its firing counter.
type rule struct {
	Rule
	fired       atomic.Int64
	stalledOnce sync.Once
	siteHash    uint64
}

// plan is the active rule set plus the per-site hit counters.
type plan struct {
	rules []*rule
	mu    sync.Mutex
	hits  map[string]int
}

// active is the installed plan; nil means fault injection is off.
var active atomic.Pointer[plan]

// Enabled reports whether a fault plan is active. It is the fast path every
// site guards with; when false the site must do no further work.
func Enabled() bool {
	return active.Load() != nil
}

// Activate installs a plan made of the given rules, replacing any previous
// plan, and returns the function that deactivates it. Tests must call the
// returned function (usually via defer or t.Cleanup) before the next
// Activate of an unrelated test; activation is process-wide.
func Activate(rules ...Rule) (deactivate func()) {
	p := &plan{hits: make(map[string]int)}
	for _, r := range rules {
		if r.Kind == KindStall && r.Gate == nil {
			panic("faultinject: KindStall rule needs a Gate channel")
		}
		p.rules = append(p.rules, &rule{Rule: r, siteHash: splitmix64(hashString(r.Site))})
	}
	active.Store(p)
	return func() { active.CompareAndSwap(p, nil) }
}

// match consumes one hit of site and returns the rule that fires on it, or
// nil. Hit numbering and rule counters are updated under the plan lock, so
// the decision for hit N of a site is the same no matter which goroutine
// lands on it.
func match(site string) *rule {
	p := active.Load()
	if p == nil {
		return nil
	}
	p.mu.Lock()
	hit := p.hits[site]
	p.hits[site] = hit + 1
	var winner *rule
	for _, r := range p.rules {
		if r.Site != site || hit < r.After {
			continue
		}
		if r.Count > 0 && int(r.fired.Load()) >= r.Count {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && !seededFire(r, hit) {
			continue
		}
		r.fired.Add(1)
		winner = r
		break
	}
	p.mu.Unlock()
	return winner
}

// Hit consumes one hit of the site and applies the matched rule, if any:
// KindError returns the injected error, KindPanic panics, KindStall blocks
// on the rule's gate, and KindNaN (data-less here) is a no-op. Callers on
// hot paths must guard the call with Enabled().
func Hit(site string) error {
	return apply(match(site), site, nil)
}

// HitData consumes one hit of the site and applies the matched rule of any
// kind against the site's float data: KindNaN overwrites v with NaN, the
// other kinds behave as in Hit. A site that can both fail and corrupt must
// use this single call — splitting it into Hit plus CorruptNaN would burn
// two hit numbers (and a Count budget) per visit.
func HitData(site string, v []float64) error {
	return apply(match(site), site, v)
}

// apply executes a matched rule; nil r is the common no-fault fast path.
func apply(r *rule, site string, v []float64) error {
	if r == nil {
		return nil
	}
	switch r.Kind {
	case KindError:
		return fmt.Errorf("faultinject: %s: %w", site, ErrInjected)
	case KindPanic:
		panic(fmt.Sprintf("faultinject: forced panic at %s", site))
	case KindStall:
		if r.Stalled != nil {
			r.stalledOnce.Do(func() { close(r.Stalled) })
		}
		<-r.Gate
	case KindNaN:
		for i := range v {
			v[i] = math.NaN()
		}
	}
	return nil
}

// CorruptNaN consumes one hit of the site and, when a KindNaN rule fires,
// overwrites every element of v with NaN, returning true. Rules of other
// kinds do not match data corruption sites.
func CorruptNaN(site string, v []float64) bool {
	r := match(site)
	if r == nil || r.Kind != KindNaN {
		return false
	}
	for i := range v {
		v[i] = math.NaN()
	}
	return true
}

// seededFire decides a probabilistic rule's hit deterministically: a pure
// hash of (seed, site, hit) mapped to [0,1) and compared against Prob.
func seededFire(r *rule, hit int) bool {
	x := splitmix64(r.Seed ^ r.siteHash ^ splitmix64(uint64(hit)+0x9e3779b97f4a7c15))
	// Take the top 53 bits for an unbiased float in [0,1).
	return float64(x>>11)/float64(1<<53) < r.Prob
}

// splitmix64 is the finalizer of the SplitMix64 generator — a fast, well
// mixed, platform-independent hash step.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashString is FNV-1a, inlined to keep this package dependency-free.
func hashString(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
