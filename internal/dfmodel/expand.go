package dfmodel

import (
	"fmt"
	"math/big"
	"sort"

	"repro/internal/taskgraph"
)

// Repetitions computes the repetition vector of a (possibly multi-rate) task
// graph: how many times each task fires per graph iteration. It solves the
// balance equations q(from)·prod = q(to)·cons of every buffer and returns
// the smallest positive integer solution of each weakly connected component
// (Lee & Messerschmitt, 1987). Single-rate graphs return all ones. Rates
// that do not admit a solution are sample-rate inconsistent (tokens would
// pile up without bound) and return an error, as does a buffer naming a task
// the graph does not have.
func Repetitions(tg *taskgraph.TaskGraph) (map[string]int, error) {
	n := len(tg.Tasks)
	ids := make(map[string]int, n)
	for i := range tg.Tasks {
		ids[tg.Tasks[i].Name] = i
	}
	// adj[a] lists (b, r) with q(b) = q(a)·r, one per buffer end at a.
	type arc struct {
		to   int
		rate *big.Rat
	}
	adj := make([][]arc, n)
	for i := range tg.Buffers {
		b := &tg.Buffers[i]
		from, okFrom := ids[b.From]
		to, okTo := ids[b.To]
		if !okFrom || !okTo {
			return nil, fmt.Errorf("dfmodel: graph %s: buffer %q has an unknown endpoint", tg.Name, b.Name)
		}
		p, c := int64(b.EffectiveProd()), int64(b.EffectiveCons())
		adj[from] = append(adj[from], arc{to, big.NewRat(p, c)})
		adj[to] = append(adj[to], arc{from, big.NewRat(c, p)})
	}
	ratio := make([]*big.Rat, n) // q(a) relative to its component's first task
	out := make(map[string]int, n)
	for root := range ratio {
		if ratio[root] != nil {
			continue
		}
		ratio[root] = big.NewRat(1, 1)
		comp := []int{root}
		for k := 0; k < len(comp); k++ {
			a := comp[k]
			for _, e := range adj[a] {
				want := new(big.Rat).Mul(ratio[a], e.rate)
				if ratio[e.to] == nil {
					ratio[e.to] = want
					comp = append(comp, e.to)
				} else if ratio[e.to].Cmp(want) != 0 {
					return nil, fmt.Errorf("dfmodel: graph %s: buffer rates are sample-rate inconsistent", tg.Name)
				}
			}
		}
		// The smallest integer solution: scale by the lcm of the
		// denominators, then divide by the gcd of the numerators.
		den := big.NewInt(1)
		for _, a := range comp {
			d := ratio[a].Denom()
			den.Mul(den, new(big.Int).Quo(d, new(big.Int).GCD(nil, nil, den, d)))
		}
		scaled := make([]*big.Int, len(comp))
		g := new(big.Int)
		for k, a := range comp {
			scaled[k] = new(big.Int).Mul(ratio[a].Num(), new(big.Int).Quo(den, ratio[a].Denom()))
			g.GCD(nil, nil, g, scaled[k])
		}
		for k, a := range comp {
			v := scaled[k].Quo(scaled[k], g)
			if !v.IsInt64() {
				return nil, fmt.Errorf("dfmodel: graph %s: repetition count of task %q overflows", tg.Name, tg.Tasks[a].Name)
			}
			out[tg.Tasks[a].Name] = int(v.Int64())
		}
	}
	return out, nil
}

// BufferDep is one expanded dependency of a multi-rate buffer: the DstCopy-th
// firing of the destination task waits for tokens produced Delta iterations
// earlier by the SrcCopy-th firing of the source task. Space dependencies
// run from the consumer (which frees containers) back to the producer.
type BufferDep struct {
	SrcCopy, DstCopy int
	Delta            int
	Space            bool
}

// ExpandBuffer computes the expanded data and space dependencies of a buffer
// with production rate p, consumption rate c, ι initial tokens and capacity
// γ, for repetition counts qFrom/qTo of its endpoint tasks. Duplicate
// dependencies (same endpoints, same distance) are merged; dominated ones
// (same endpoints, larger distance) are kept only as the minimum, which is
// the binding constraint.
func ExpandBuffer(b *taskgraph.Buffer, qFrom, qTo, gamma int) ([]BufferDep, error) {
	p, cRate := b.EffectiveProd(), b.EffectiveCons()
	if p*qFrom != cRate*qTo {
		return nil, fmt.Errorf("dfmodel: buffer %q rates are inconsistent with the repetition vector", b.Name)
	}
	iota := b.InitialTokens
	space := gamma - iota
	if space < 0 {
		return nil, fmt.Errorf("dfmodel: buffer %q capacity below initial tokens", b.Name)
	}
	perIter := p * qFrom
	type key struct {
		src, dst int
		space    bool
	}
	min := map[key]int{}
	add := func(src, dst, delta int, isSpace bool) {
		k := key{src, dst, isSpace}
		if cur, ok := min[k]; !ok || delta < cur {
			min[k] = delta
		}
	}
	// Data: consumption index T of firing (nStar, j) maps back to the
	// producing firing ⌊(T−ι)/p⌋.
	nStar := (iota+gamma)/max(1, perIter) + 2
	for j := 0; j < qTo; j++ {
		for k := 0; k < cRate; k++ {
			t := (nStar*qTo+j)*cRate + k
			produced := t - iota
			if produced < 0 {
				return nil, fmt.Errorf("dfmodel: buffer %q expansion underflow", b.Name)
			}
			f := produced / p
			add(f%qFrom, j, nStar-f/qFrom, false)
		}
	}
	// Space: the producer consumes p space tokens per firing from a reverse
	// channel that starts with γ−ι tokens and receives c per consumer firing.
	for l := 0; l < qFrom; l++ {
		for k := 0; k < p; k++ {
			t := (nStar*qFrom+l)*p + k
			freed := t - space
			if freed < 0 {
				return nil, fmt.Errorf("dfmodel: buffer %q space expansion underflow", b.Name)
			}
			f := freed / cRate
			add(f%qTo, l, nStar-f/qTo, true)
		}
	}
	// Emit in sorted key order: the map collected minima, but the returned
	// dependency list (and the error text on underflow) must not depend on
	// map iteration order.
	keys := make([]key, 0, len(min))
	for k := range min {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.space != b.space {
			return !a.space
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.dst < b.dst
	})
	out := make([]BufferDep, 0, len(min))
	for _, k := range keys {
		d := min[k]
		if d < 0 {
			return nil, fmt.Errorf("dfmodel: buffer %q produced a negative dependency distance", b.Name)
		}
		out = append(out, BufferDep{SrcCopy: k.src, DstCopy: k.dst, Delta: d, Space: k.space})
	}
	return out, nil
}
