package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the dataflow half of the engine: a generic forward worklist
// solver over the CFG of cfg.go, plus the one concrete lattice the analyzer
// suite needs — a taint set (which variables hold values derived from a set
// of seed objects). The lattice is a finite powerset joined by union (or
// intersection, for a must analysis), so the fixpoint iteration terminates.

// A FlowProblem defines one forward dataflow analysis over fact type F.
// Facts must be treated as immutable by Transfer and Join: return fresh
// values instead of mutating inputs, so block facts never alias.
type FlowProblem[F any] interface {
	// Boundary is the fact at function entry.
	Boundary() F
	// Initial is the optimistic starting fact of every non-entry block
	// before iteration: bottom (empty) for a may/union analysis, top (the
	// full universe) for a must/intersection analysis. Pessimistic
	// initialization would freeze loop heads of a must analysis below
	// their fixpoint, so the distinction is load-bearing.
	Initial() F
	// Transfer pushes a fact through one block.
	Transfer(b *Block, in F) F
	// Join merges facts at control-flow confluences.
	Join(a, b F) F
	// Equal detects the fixpoint.
	Equal(a, b F) bool
}

// FlowFacts holds the solved per-block facts of one analysis.
type FlowFacts[F any] struct {
	// In[i] is the fact at entry of Blocks[i]; Out[i] at its exit.
	In, Out []F
}

// SolveForward runs the classic iterative worklist algorithm to a fixpoint
// and returns the per-block facts. Blocks are processed in construction
// order (close to source order), which for the reducible CFGs a Go
// function produces converges in a handful of passes.
func SolveForward[F any](g *CFG, p FlowProblem[F]) *FlowFacts[F] {
	n := len(g.Blocks)
	facts := &FlowFacts[F]{In: make([]F, n), Out: make([]F, n)}
	for i, blk := range g.Blocks {
		if blk == g.Entry {
			facts.In[i] = p.Boundary()
		} else {
			facts.In[i] = p.Initial()
		}
		facts.Out[i] = p.Transfer(blk, facts.In[i])
	}
	onList := make([]bool, n)
	var work []*Block
	push := func(blk *Block) {
		// The entry fact is the boundary by definition; a backward goto
		// into the first statement does not revise it.
		if blk != g.Entry && !onList[blk.Index] {
			onList[blk.Index] = true
			work = append(work, blk)
		}
	}
	for _, blk := range g.Blocks {
		push(blk)
	}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		onList[blk.Index] = false
		in := p.Initial()
		if len(blk.Preds) > 0 {
			in = facts.Out[blk.Preds[0].Index]
			for _, pr := range blk.Preds[1:] {
				in = p.Join(in, facts.Out[pr.Index])
			}
		}
		facts.In[blk.Index] = in
		out := p.Transfer(blk, in)
		if !p.Equal(out, facts.Out[blk.Index]) {
			facts.Out[blk.Index] = out
			for _, s := range blk.Succs {
				push(s)
			}
		}
	}
	return facts
}

// forEachWrite invokes fn for every local-variable write performed
// directly by node n (assignments, short declarations, var declarations,
// inc/dec, and range clause variables). Nested function literals are not
// descended into: their writes happen on a different control flow.
func forEachWrite(info *types.Info, n ast.Node, fn func(*types.Var, ast.Node)) {
	report := func(e ast.Expr, site ast.Node) {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		var obj types.Object
		if obj = info.Defs[id]; obj == nil {
			obj = info.Uses[id]
		}
		if v, ok := obj.(*types.Var); ok {
			fn(v, site)
		}
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			report(lhs, n)
		}
	case *ast.IncDecStmt:
		report(n.X, n)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, name := range vs.Names {
						report(name, n)
					}
				}
			}
		}
	case *ast.RangeStmt:
		if n.Key != nil {
			report(n.Key, n)
		}
		if n.Value != nil {
			report(n.Value, n)
		}
	}
}

// ---------------------------------------------------------------------------
// Taint.

// TaintSet is the lattice element of the taint analysis: the set of
// objects currently holding a value derived from the seeds.
type TaintSet map[types.Object]bool

// A TaintProblem propagates "derived-from-seed" through assignments. It is
// deliberately simple — an intraprocedural, object-granular lattice — but
// flow-sensitive: reassigning a variable from an underived value removes
// it from the set on that path.
type TaintProblem struct {
	Info *types.Info
	// Seeds are tainted at function entry (typically parameter objects).
	Seeds []types.Object
	// Tracks limits the objects the analysis follows (e.g. only
	// context.Context-typed variables). Nil tracks everything.
	Tracks func(types.Object) bool
	// Derived reports whether evaluating e yields a tainted value under
	// the given set. It must handle the analyzer's propagation rules
	// (identifier lookup, wrapping calls, conversions).
	Derived func(e ast.Expr, set TaintSet) bool
	// Must selects all-paths semantics: confluences intersect instead of
	// union, so a value counts as derived only when it is derived on every
	// incoming path. Must requires Universe.
	Must bool
	// Universe lists every trackable object of the function; it is the
	// top element a must analysis starts non-entry blocks from.
	Universe []types.Object
}

// SolveTaint runs the taint analysis over the CFG.
func SolveTaint(g *CFG, p *TaintProblem) *FlowFacts[TaintSet] {
	return SolveForward[TaintSet](g, p)
}

func (p *TaintProblem) Boundary() TaintSet {
	set := TaintSet{}
	for _, s := range p.Seeds {
		set[s] = true
	}
	return set
}

func (p *TaintProblem) Initial() TaintSet {
	set := TaintSet{}
	if p.Must {
		for _, o := range p.Universe {
			set[o] = true
		}
	}
	return set
}

func (p *TaintProblem) Transfer(b *Block, in TaintSet) TaintSet {
	out := copyTaint(in)
	for _, n := range b.Nodes {
		p.Apply(n, out)
	}
	return out
}

// Apply updates the set in place for one statement's writes. It is exposed
// so analyzers can replay a block statement-by-statement and know the
// exact set at each call site inside the block.
func (p *TaintProblem) Apply(n ast.Node, set TaintSet) {
	forEachWrite(p.Info, n, func(v *types.Var, site ast.Node) {
		if p.Tracks != nil && !p.Tracks(v) {
			return
		}
		rhs := rhsFor(site, v, p.Info)
		if rhs != nil && p.Derived(rhs, set) {
			set[v] = true
		} else {
			delete(set, v) // strong update on reassignment
		}
	})
}

func (p *TaintProblem) Join(a, b TaintSet) TaintSet {
	if p.Must {
		out := TaintSet{}
		for o := range a {
			if b[o] {
				out[o] = true
			}
		}
		return out
	}
	out := copyTaint(a)
	for o := range b {
		out[o] = true
	}
	return out
}

func (p *TaintProblem) Equal(a, b TaintSet) bool {
	if len(a) != len(b) {
		return false
	}
	for o := range a {
		if !b[o] {
			return false
		}
	}
	return true
}

func copyTaint(in TaintSet) TaintSet {
	out := make(TaintSet, len(in))
	for o := range in {
		out[o] = true
	}
	return out
}

// rhsFor finds the expression assigned to v by definition site n: the
// matching right-hand side of an assignment, the initializer of a var
// declaration, or the whole call for a multi-value assignment (the caller's
// Derived hook decides what a call produces). Range clauses and inc/dec
// return nil (never taint-producing for the lattices used here).
func rhsFor(n ast.Node, v *types.Var, info *types.Info) ast.Expr {
	switch n := n.(type) {
	case *ast.AssignStmt:
		idx := -1
		for i, lhs := range n.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj == v {
					idx = i
					break
				}
			}
		}
		if idx < 0 {
			return nil
		}
		if len(n.Rhs) == len(n.Lhs) {
			return n.Rhs[idx]
		}
		if len(n.Rhs) == 1 {
			return n.Rhs[0] // multi-value: x, y := f(...)
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if info.Defs[name] == v {
						if len(vs.Values) == len(vs.Names) {
							return vs.Values[i]
						}
						if len(vs.Values) == 1 {
							return vs.Values[0]
						}
					}
				}
			}
		}
	}
	return nil
}
