package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// This file is the call-graph half of the interprocedural layer: it
// resolves call expressions to their static callees, indexes the module's
// function declarations across packages, and drives the bottom-up SCC
// traversal over which summary.go computes per-function summaries. The
// companion conservatism rules live with the resolution code:
//
//   - A call through a function value or an interface method has no
//     statically known body. ResolveCall classifies it as Dynamic and every
//     client treats it according to its own soundness needs (hotalloc flags
//     it inside annotated functions, csralias treats a backing slice passed
//     through it as escaping, the summaries do not invent facts for it).
//   - A call into another module (in practice: the standard library, since
//     this module has no dependencies) has no loadable declaration either;
//     summaries consult an explicit list (stdAllocPkgs) instead of
//     guessing.
//
// Everything here is deterministic: callee lists are collected in source
// order, the SCC traversal is a textbook Tarjan whose order depends only on
// those lists, and summaries never iterate a map into an output.

// A CallTarget classifies one call expression.
type CallTarget struct {
	// Static is the statically known callee: a package-level function or a
	// method invoked on a concrete receiver. Nil for dynamic calls,
	// builtins, and type conversions.
	Static *types.Func
	// Dynamic is non-empty when the callee cannot be resolved statically:
	// "a function value" or "an interface method" (article included, so
	// diagnostics can splice it directly).
	Dynamic string
	// Name is a display name for diagnostics; set for interface methods
	// (the method's name) even though Static is nil.
	Name string
}

// ResolveCall classifies a call expression against the type information of
// its package. Builtins, conversions, and immediately invoked function
// literals yield the zero CallTarget (the direct analyzers handle those
// shapes themselves).
func ResolveCall(info *types.Info, call *ast.CallExpr) CallTarget {
	fun := ast.Unparen(call.Fun)
	// Generic instantiation f[T](...) resolves through the inner operand.
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		if _, isFunc := info.Types[idx.X].Type.(*types.Signature); isFunc {
			fun = ast.Unparen(idx.X)
		}
	case *ast.IndexListExpr:
		if _, isFunc := info.Types[idx.X].Type.(*types.Signature); isFunc {
			fun = ast.Unparen(idx.X)
		}
	}
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return CallTarget{} // conversion, not a call
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			return CallTarget{Static: obj, Name: obj.Name()}
		case *types.Var:
			return CallTarget{Dynamic: "a function value", Name: fun.Name}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			switch sel.Kind() {
			case types.MethodVal:
				f := sel.Obj().(*types.Func)
				if types.IsInterface(sel.Recv()) {
					return CallTarget{Dynamic: "an interface method", Name: f.Name()}
				}
				return CallTarget{Static: f, Name: f.Name()}
			case types.FieldVal:
				return CallTarget{Dynamic: "a function value", Name: fun.Sel.Name}
			}
			return CallTarget{}
		}
		// Qualified identifier pkg.F, or a method expression T.M. Method
		// expressions shift the receiver into the first argument, which
		// would misalign the per-parameter summaries; they do not occur in
		// this codebase, so they are left unresolved.
		if tv, ok := info.Types[fun.X]; ok && tv.IsType() {
			return CallTarget{}
		}
		switch obj := info.Uses[fun.Sel].(type) {
		case *types.Func:
			return CallTarget{Static: obj, Name: obj.Name()}
		case *types.Var:
			return CallTarget{Dynamic: "a function value", Name: fun.Sel.Name}
		}
	}
	return CallTarget{}
}

// declSite locates one function declaration together with its package.
type declSite struct {
	Decl *ast.FuncDecl
	Pkg  *Package
}

// An Interp is the module-wide interprocedural index shared by every
// package of one Loader: declaration lookup across packages, memoized call
// edges, and the summary table. Analyzers reach it through Package.Interp.
type Interp struct {
	loader    *Loader
	decls     map[*types.Func]declSite
	indexed   map[string]bool // package paths whose decls are indexed
	edges     map[*types.Func][]*types.Func
	summaries map[*types.Func]*Summary
	final     map[*types.Func]bool
	hotpath   map[*types.Func]bool
}

// Interp returns the interprocedural index shared by every package loaded
// through this package's loader, or nil for a Package constructed without
// one (analyzers then skip their interprocedural checks).
func (p *Package) Interp() *Interp {
	if p.loader == nil {
		return nil
	}
	if p.loader.interp == nil {
		p.loader.interp = &Interp{
			loader:    p.loader,
			decls:     map[*types.Func]declSite{},
			indexed:   map[string]bool{},
			edges:     map[*types.Func][]*types.Func{},
			summaries: map[*types.Func]*Summary{},
			final:     map[*types.Func]bool{},
			hotpath:   map[*types.Func]bool{},
		}
	}
	return p.loader.interp
}

// intraModule reports whether the function belongs to this module.
func (ip *Interp) intraModule(f *types.Func) bool {
	if f == nil || f.Pkg() == nil {
		return false
	}
	path := f.Pkg().Path()
	return path == ip.loader.ModPath || strings.HasPrefix(path, ip.loader.ModPath+"/")
}

// DeclOf returns the declaration of an intra-module function and the
// package it lives in, or (nil, nil) for functions outside the module or
// without a body we can load. The owning package is indexed once.
func (ip *Interp) DeclOf(f *types.Func) (*ast.FuncDecl, *Package) {
	if !ip.intraModule(f) {
		return nil, nil
	}
	path := f.Pkg().Path()
	if !ip.indexed[path] {
		ip.indexed[path] = true
		// The package is already in the loader's cache whenever f came from
		// type-checking an importer of it; a load failure here (a function
		// object from a package the loader cannot see) just leaves the
		// function opaque, which is the conservative outcome.
		if pkg, err := ip.loader.load(path); err == nil {
			for _, file := range pkg.Files {
				for _, d := range file.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok {
						continue
					}
					if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						ip.decls[obj] = declSite{Decl: fd, Pkg: pkg}
						if funcHotpath(fd) {
							ip.hotpath[obj] = true
						}
					}
				}
			}
		}
	}
	ds := ip.decls[f]
	return ds.Decl, ds.Pkg
}

// Hotpath reports whether the function's declaration carries the
// //bbvet:hotpath directive. Annotated functions are a trusted boundary for
// the allocation summaries: their zero-alloc contract is checked directly
// (and any exception inside them carries a reasoned bbvet:allow), so
// transitive analyses do not chase through them.
func (ip *Interp) Hotpath(f *types.Func) bool {
	ip.DeclOf(f) // ensure the owning package is indexed
	return ip.hotpath[f]
}

// callees returns f's statically resolved intra-module callees that have a
// loadable body, deduplicated, in source order of the first call.
func (ip *Interp) callees(f *types.Func) []*types.Func {
	if out, ok := ip.edges[f]; ok {
		return out
	}
	decl, pkg := ip.DeclOf(f)
	var out []*types.Func
	if decl != nil && decl.Body != nil {
		seen := map[*types.Func]bool{}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			t := ResolveCall(pkg.Info, call)
			if t.Static == nil || seen[t.Static] {
				return true
			}
			if d, _ := ip.DeclOf(t.Static); d != nil && d.Body != nil {
				seen[t.Static] = true
				out = append(out, t.Static)
			}
			return true
		})
	}
	ip.edges[f] = out
	return out
}

// SummaryOf returns the interprocedural summary of f, computing the
// summaries of its strongly connected component — and of every component
// below it — on first use. Functions without a loadable intra-module body
// yield nil.
func (ip *Interp) SummaryOf(f *types.Func) *Summary {
	if ip == nil || f == nil {
		return nil
	}
	if ip.final[f] {
		return ip.summaries[f]
	}
	decl, _ := ip.DeclOf(f)
	if decl == nil || decl.Body == nil {
		return nil
	}
	t := &tarjan{
		ip:    ip,
		index: map[*types.Func]int{},
		low:   map[*types.Func]int{},
		on:    map[*types.Func]bool{},
	}
	t.connect(f)
	return ip.summaries[f]
}

// tarjan is the classic strongly-connected-components walk over the static
// call graph; each popped component is summarized to fixpoint bottom-up, so
// by the time a component is processed every callee outside it is final.
type tarjan struct {
	ip    *Interp
	index map[*types.Func]int
	low   map[*types.Func]int
	on    map[*types.Func]bool
	stack []*types.Func
	next  int
}

func (t *tarjan) connect(v *types.Func) {
	t.index[v] = t.next
	t.low[v] = t.next
	t.next++
	t.stack = append(t.stack, v)
	t.on[v] = true
	if t.ip.summaries[v] == nil {
		// Optimistic (all-false) partial summary: cycle members read each
		// other's partials during the fixpoint below.
		t.ip.summaries[v] = &Summary{}
	}
	for _, w := range t.ip.callees(v) {
		if t.ip.final[w] {
			continue
		}
		if _, seen := t.index[w]; !seen {
			t.connect(w)
			t.low[v] = min(t.low[v], t.low[w])
		} else if t.on[w] {
			t.low[v] = min(t.low[v], t.index[w])
		}
	}
	if t.low[v] != t.index[v] {
		return
	}
	// v is the root of a component: pop it and iterate to fixpoint. Every
	// summary fact is monotone (booleans and bitmasks that only grow), so
	// the iteration converges; the witness fields are deterministic
	// functions of the body and the converged facts.
	var members []*types.Func
	for {
		m := t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
		t.on[m] = false
		members = append(members, m)
		if m == v {
			break
		}
	}
	for round := 0; round < 4*len(members)+4; round++ {
		changed := false
		for _, m := range members {
			ns := t.ip.compute(m)
			if !ns.equal(t.ip.summaries[m]) {
				t.ip.summaries[m] = ns
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for _, m := range members {
		t.ip.final[m] = true
	}
}
