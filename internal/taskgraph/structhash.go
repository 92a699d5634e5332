package taskgraph

// StructureHash digests the configuration's topology: everything that
// shapes the cone program's sparsity pattern — graph, task, and buffer
// identities and wiring, processor and memory membership, multi-rate
// factors, and which optional constraint rows exist (capacity caps, forced
// minima, latency bounds) — and nothing that only scales the program's
// numeric values (WCETs, periods, replenishments, weights, memory sizes,
// granularity). Configurations that differ only in those numbers hash
// identically: requests for a shared app template with tuned parameters
// all carry one pattern label in bbserve's responses and request logs.
//
// The hash is advisory: it keys no state. The solver-level
// socp.PatternCache verifies sparsity patterns entry for entry on every
// lookup, so a collision (or a structural detail this digest abstracts
// away) can never corrupt a result — it only groups requests more
// coarsely.
func (c *Config) StructureHash() uint64 {
	h := newStructHasher()
	h.str('P', "")
	for i := range c.Processors {
		h.str('p', c.Processors[i].Name)
	}
	h.str('M', "")
	for i := range c.Memories {
		h.str('m', c.Memories[i].Name)
	}
	for _, tg := range c.Graphs {
		h.str('G', tg.Name)
		for i := range tg.Tasks {
			w := &tg.Tasks[i]
			h.str('t', w.Name)
			h.str('@', w.Processor)
		}
		for i := range tg.Buffers {
			b := &tg.Buffers[i]
			h.str('b', b.Name)
			h.str('<', b.From)
			h.str('>', b.To)
			h.str('v', b.Memory)
			// The capacity bounds add constraint rows only when active
			// (MaxContainers > 0; MinContainers above the initial fill), so
			// only their presence is structural, not their values.
			h.flag('X', b.MaxContainers > 0)
			h.flag('N', b.MinContainers-b.InitialTokens > 0)
			// Multi-rate factors route the whole configuration through the
			// HSDF expansion, changing the program's shape entirely.
			h.num('x', uint64(b.EffectiveProd()))
			h.num('y', uint64(b.EffectiveCons()))
		}
		for i := range tg.Latencies {
			lc := &tg.Latencies[i]
			h.str('L', lc.From)
			h.str('l', lc.To)
		}
	}
	return h.sum
}

// structHasher is FNV-1a over a tag-and-length-prefixed byte stream, so
// adjacent fields cannot alias ("ab","c" vs "a","bc") and absent sections
// hash differently from empty ones.
type structHasher struct{ sum uint64 }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newStructHasher() *structHasher { return &structHasher{sum: fnvOffset} }

func (h *structHasher) byte(b byte) {
	h.sum ^= uint64(b)
	h.sum *= fnvPrime
}

func (h *structHasher) num(tag byte, v uint64) {
	h.byte(tag)
	for i := 0; i < 8; i++ {
		h.byte(byte(v >> (8 * i)))
	}
}

func (h *structHasher) str(tag byte, s string) {
	h.num(tag, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}

func (h *structHasher) flag(tag byte, v bool) {
	if v {
		h.num(tag, 1)
	} else {
		h.num(tag, 0)
	}
}
