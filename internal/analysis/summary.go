package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// A Summary is the interprocedural fact sheet of one function, computed
// bottom-up over the strongly connected components of the call graph (see
// callgraph.go). Every field is a may-fact: true means the behavior can
// happen on some path, false means it provably cannot through any
// statically resolved call. Witness fields (*What/*Pos/*Via) record one
// deterministic explanation — the first cause in source order — so
// diagnostics can print the full call path to the offending site.
type Summary struct {
	// Allocates: the body can hit the allocator — make, new, append,
	// slice/map composite literals, address-of-composite, closure creation,
	// map writes, go statements, interface boxing, or a call to a function
	// that does. Calls to //bbvet:hotpath-annotated functions do not
	// contribute: the annotation is an audited zero-alloc contract checked
	// directly, and any exception inside one carries a reasoned allow.
	Allocates bool
	AllocWhat string      // witness: "make", "map write", "call to fmt.Sprintf", …
	AllocPos  token.Pos   // witness position
	AllocVia  *types.Func // next hop when the witness is an intra-module call

	// RetainsParam / ReturnsParam: per-parameter escape facts for
	// slice-typed parameters (bit i ↔ parameter i, variadic folded onto the
	// last bit). Retains: the parameter's backing memory outlives the call
	// (stored into a field, global, element, channel, composite literal, or
	// retained by a callee). Returns: some return value aliases it.
	RetainsParam uint64
	ReturnsParam uint64

	// OrderedReturn: some return value's element order depends on map
	// iteration order (an append under a map range, never sorted before the
	// return, or the unsorted result of a callee with this fact).
	OrderedReturn bool

	// Emits: the body can write formatted output (fmt print family, log,
	// builtin print) directly or through a callee.
	Emits    bool
	EmitWhat string
	EmitPos  token.Pos
	EmitVia  *types.Func

	// Sends: the body can send on a channel, directly or through a callee.
	Sends bool
}

func (s *Summary) equal(o *Summary) bool {
	if o == nil {
		return false
	}
	return *s == *o
}

// stdAllocPkgs lists standard-library packages whose exported functions are
// treated as allocating. The rest of the stdlib surface the module touches
// (math, sync, sync/atomic, runtime, unsafe helpers) is trusted not to
// allocate; the trust boundary is deliberate and documented in DESIGN.md §8
// — a conservative "everything allocates" default would drown the
// transitive hotalloc signal in error-path noise.
var stdAllocPkgs = map[string]bool{
	"bufio": true, "bytes": true, "encoding/json": true, "errors": true,
	"fmt": true, "io": true, "log": true, "os": true, "regexp": true,
	"sort": true, "strconv": true, "strings": true, "slices": true,
}

// compute builds f's summary from its body and the current summary table
// (partial for members of f's own SCC, final below it). It is pure with
// respect to the table: the fixpoint driver compares and installs results.
func (ip *Interp) compute(f *types.Func) *Summary {
	s := &Summary{}
	decl, pkg := ip.DeclOf(f)
	if decl == nil || decl.Body == nil {
		return s
	}
	info := pkg.Info

	params := paramObjects(info, decl)
	masks := ip.aliasMasks(info, decl.Body, params)
	exprMask := func(e ast.Expr) uint64 { return ip.exprMask(info, masks, e) }

	// orderedVars collects locals whose element order is map-iteration
	// dependent; sortedVars collects locals later passed to a sort call.
	orderedVars := map[types.Object]bool{}
	sortedVars := map[types.Object]bool{}

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isBuiltin(info, n.Fun, "panic") {
				// Terminating error path: its arguments (typically a
				// fmt.Sprintf) are exempt, matching direct hotalloc.
				return false
			}
			ip.computeCall(s, info, n, exprMask, orderedVars, sortedVars)
		case *ast.CompositeLit:
			if t := info.Types[n].Type; t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					s.noteAlloc("composite literal", n.Pos(), nil)
				}
			}
			for _, elt := range n.Elts {
				val := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					val = kv.Value
				}
				s.RetainsParam |= exprMask(val)
			}
		case *ast.UnaryExpr:
			if _, ok := n.X.(*ast.CompositeLit); ok {
				s.noteAlloc("address of composite literal", n.OpPos, nil)
			}
		case *ast.FuncLit:
			s.noteAlloc("closure", n.Pos(), nil)
			// Keep walking: effects inside a literal (a go statement, a
			// retained parameter) may run when the closure does, so they
			// count conservatively.
		case *ast.GoStmt:
			s.noteAlloc("go statement", n.Go, nil)
		case *ast.SendStmt:
			s.Sends = true
			s.RetainsParam |= exprMask(n.Value)
		case *ast.RangeStmt:
			if t := info.Types[n.X].Type; t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					collectOrderedAppends(info, n, orderedVars)
				}
			}
		case *ast.AssignStmt:
			ip.computeAssign(s, info, pkg, n, exprMask, orderedVars)
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				s.ReturnsParam |= exprMask(res)
				if returnIsOrdered(ip, info, res, orderedVars, sortedVars) {
					s.OrderedReturn = true
				}
			}
			if boxesIntoResult(info, decl, n) {
				s.noteAlloc("interface boxing at return", n.Pos(), nil)
			}
		}
		return true
	})
	// A local that was sorted anywhere in the body is order-clean; the
	// flow-insensitive approximation can only under-report OrderedReturn
	// for sort-then-append-again shapes, which do not occur here.
	return s
}

// computeCall folds one call expression into the summary.
func (ip *Interp) computeCall(s *Summary, info *types.Info, call *ast.CallExpr,
	exprMask func(ast.Expr) uint64, orderedVars, sortedVars map[types.Object]bool) {

	// Builtins first: allocation intrinsics per the issue's list.
	switch {
	case isBuiltin(info, call.Fun, "make"):
		s.noteAlloc("make", call.Lparen, nil)
		return
	case isBuiltin(info, call.Fun, "new"):
		s.noteAlloc("new", call.Lparen, nil)
		return
	case isBuiltin(info, call.Fun, "append"):
		s.noteAlloc("append", call.Lparen, nil)
		return
	case isBuiltin(info, call.Fun, "panic"):
		return // terminating error path, same exemption as direct hotalloc
	}
	if name, ok := emitCall(info, call); ok {
		if !s.Emits {
			s.Emits = true
			s.EmitWhat = name
			s.EmitPos = call.Lparen
		}
	}
	// Sort calls launder order-dependence; record which locals they touch.
	if isSortCall(info, call) {
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil {
					sortedVars[obj] = true
				}
			}
		}
	}
	tv := info.Types[call.Fun]
	if tv.IsType() {
		// Conversion: boxing when the target is an interface.
		if len(call.Args) == 1 && isInterface(tv.Type) && boxes(info, call.Args[0]) {
			s.noteAlloc("interface boxing at conversion", call.Lparen, nil)
		}
		return
	}

	t := ResolveCall(info, call)
	switch {
	case t.Static != nil && ip.intraModule(t.Static):
		if decl, _ := ip.DeclOf(t.Static); decl != nil && decl.Body != nil {
			cs := ip.summaries[t.Static]
			if cs != nil {
				if cs.Allocates && !ip.Hotpath(t.Static) {
					s.noteAlloc("call to "+ip.displayName(t.Static), call.Lparen, t.Static)
				}
				if cs.Emits && !s.Emits {
					s.Emits = true
					s.EmitWhat = "call to " + ip.displayName(t.Static)
					s.EmitPos = call.Lparen
					s.EmitVia = t.Static
				}
				s.Sends = s.Sends || cs.Sends
				// Escape propagation: a masked argument handed to a callee
				// that retains (or returns, with the result itself escaping
				// through the surrounding expression) its parameter.
				for i, arg := range call.Args {
					m := exprMask(arg)
					if m == 0 {
						continue
					}
					if cs.RetainsParam&paramBit(t.Static, i) != 0 {
						s.RetainsParam |= m
					}
				}
			}
			return
		}
		// Intra-module object without a loadable body: leave it opaque.
		return
	case t.Static != nil:
		// Out-of-module (stdlib) callee: an explicit list, no guessing.
		if stdAllocPkgs[stdPkgPath(t.Static)] {
			s.noteAlloc("call to "+stdQualifiedName(t.Static), call.Lparen, nil)
		}
		return
	case t.Dynamic != "":
		// Dynamic call: the summaries record no invented facts; each
		// analyzer applies its own conservatism at the annotated boundary
		// (see hotalloc and csralias). A masked argument passed through a
		// dynamic call is treated as escaping by csralias directly.
		return
	}
}

// computeAssign folds one assignment into the summary: map-write
// allocation, interface boxing, escaping stores of masked values, and
// order-taint propagation through call results.
func (ip *Interp) computeAssign(s *Summary, info *types.Info, pkg *Package, as *ast.AssignStmt,
	exprMask func(ast.Expr) uint64, orderedVars map[types.Object]bool) {

	for _, lhs := range as.Lhs {
		if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if t := info.Types[idx.X].Type; t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					s.noteAlloc("map write", as.TokPos, nil)
				}
			}
		}
	}
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		rhs := as.Rhs[i]
		if lt := info.Types[lhs].Type; lt != nil && isInterface(lt) && boxes(info, rhs) {
			s.noteAlloc("interface boxing at assignment", rhs.Pos(), nil)
		}
		if m := exprMask(rhs); m != 0 && escapingTarget(info, pkg.Types, lhs) {
			s.RetainsParam |= m
		}
		// x := orderedCallee(...) taints x.
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
			if t := ResolveCall(info, call); t.Static != nil {
				if cs := ip.summaries[t.Static]; cs != nil && cs.OrderedReturn {
					if id, ok := lhs.(*ast.Ident); ok {
						if obj := info.Defs[id]; obj != nil {
							orderedVars[obj] = true
						} else if obj := info.Uses[id]; obj != nil {
							orderedVars[obj] = true
						}
					}
				}
			}
		}
	}
}

// noteAlloc records the first allocation witness in source order. Facts
// are monotone: once Allocates is set, an earlier-position witness still
// wins, so the fixpoint converges on the first cause in the body.
func (s *Summary) noteAlloc(what string, pos token.Pos, via *types.Func) {
	if s.Allocates && s.AllocPos <= pos {
		return
	}
	s.Allocates = true
	s.AllocWhat = what
	s.AllocPos = pos
	s.AllocVia = via
}

// paramObjects returns the declared parameter objects of a function in
// signature order (receiver excluded; it carries no per-parameter bit).
func paramObjects(info *types.Info, decl *ast.FuncDecl) []types.Object {
	var out []types.Object
	if decl.Type.Params == nil {
		return out
	}
	for _, field := range decl.Type.Params.List {
		for _, name := range field.Names {
			out = append(out, info.Defs[name])
		}
		if len(field.Names) == 0 {
			out = append(out, nil) // unnamed parameter still occupies a slot
		}
	}
	return out
}

// paramBit maps argument index i of a call to f onto the summary bitmask,
// folding variadic arguments onto the last parameter's bit and saturating
// at 64 parameters.
func paramBit(f *types.Func, i int) uint64 {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return 0
	}
	if i >= sig.Params().Len() {
		i = sig.Params().Len() - 1
	}
	if i >= 64 {
		return 0
	}
	return 1 << uint(i)
}

// aliasMasks computes, flow-insensitively, which locals may alias which
// slice-typed parameters: parameters seed their own bit; `q := p`,
// re-slicing, and the results of callees that return a parameter alias
// propagate bits. The iteration runs to fixpoint (bounded by the number of
// assignments, since masks only grow).
func (ip *Interp) aliasMasks(info *types.Info, body *ast.BlockStmt, params []types.Object) map[types.Object]uint64 {
	masks := map[types.Object]uint64{}
	for i, p := range params {
		if p == nil || i >= 64 {
			continue
		}
		if _, isSlice := p.Type().Underlying().(*types.Slice); isSlice {
			masks[p] = 1 << uint(i)
		}
	}
	var assigns []*ast.AssignStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			assigns = append(assigns, as)
		}
		return true
	})
	for round := 0; round <= len(assigns); round++ {
		changed := false
		for _, as := range assigns {
			for i, lhs := range as.Lhs {
				if i >= len(as.Rhs) {
					break
				}
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj == nil {
					continue
				}
				m := ip.exprMask(info, masks, as.Rhs[i])
				if m&^masks[obj] != 0 {
					masks[obj] |= m
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return masks
}

// exprMask resolves the parameter-alias mask of an expression: identifiers
// through the mask table, re-slices and parens transparently, builtin
// append through its first argument, and calls through the callee's
// ReturnsParam fact.
func (ip *Interp) exprMask(info *types.Info, masks map[types.Object]uint64, e ast.Expr) uint64 {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
			continue
		case *ast.SliceExpr:
			e = x.X
			continue
		}
		break
	}
	switch x := e.(type) {
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		if obj == nil {
			return 0
		}
		return masks[obj]
	case *ast.CallExpr:
		if isBuiltin(info, x.Fun, "append") && len(x.Args) > 0 {
			m := ip.exprMask(info, masks, x.Args[0])
			// append(dst, src...) copies src's elements but may return
			// dst's backing array unchanged; only dst's mask survives.
			return m
		}
		t := ResolveCall(info, x)
		if t.Static == nil {
			return 0
		}
		cs := ip.summaries[t.Static]
		if cs == nil || cs.ReturnsParam == 0 {
			return 0
		}
		var m uint64
		for i, arg := range x.Args {
			if cs.ReturnsParam&paramBit(t.Static, i) != 0 {
				m |= ip.exprMask(info, masks, arg)
			}
		}
		return m
	}
	return 0
}

// collectOrderedAppends records, for one range-over-map loop, the local
// slice variables grown by append inside its body.
func collectOrderedAppends(info *types.Info, rng *ast.RangeStmt, orderedVars map[types.Object]bool) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isBuiltin(info, call.Fun, "append") {
			return true
		}
		if tgt := appendTarget(info, call); tgt != nil {
			orderedVars[tgt] = true
		}
		return true
	})
}

// returnIsOrdered reports whether a returned expression carries
// map-iteration order: a tainted local that was never sorted, or the
// direct result of a callee with OrderedReturn.
func returnIsOrdered(ip *Interp, info *types.Info, res ast.Expr, orderedVars, sortedVars map[types.Object]bool) bool {
	switch x := ast.Unparen(res).(type) {
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		return obj != nil && orderedVars[obj] && !sortedVars[obj]
	case *ast.CallExpr:
		if t := ResolveCall(info, x); t.Static != nil {
			if cs := ip.summaries[t.Static]; cs != nil {
				return cs.OrderedReturn
			}
		}
	}
	return false
}

// boxesIntoResult reports whether a return statement boxes a concrete
// value into an interface-typed result.
func boxesIntoResult(info *types.Info, decl *ast.FuncDecl, ret *ast.ReturnStmt) bool {
	obj := info.Defs[decl.Name]
	if obj == nil {
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Results() == nil || len(ret.Results) != sig.Results().Len() {
		return false
	}
	for i, res := range ret.Results {
		if isInterface(sig.Results().At(i).Type()) && boxes(info, res) {
			return true
		}
	}
	return false
}

// isSortCall reports whether the call is into package sort or slices (the
// order-laundering family the maprange analyzer already recognizes).
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return false
	}
	p := pn.Imported().Path()
	return p == "sort" || p == "slices"
}

// escapingTarget reports whether assigning to lhs gives the value a home
// that outlives the enclosing call: a struct field, a dereference, an
// element of non-local storage, or a package-level variable.
func escapingTarget(info *types.Info, scope *types.Package, lhs ast.Expr) bool {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		return true // field store (or package var via selector)
	case *ast.StarExpr:
		return true
	case *ast.IndexExpr:
		return true // storing into a slice/map cell
	case *ast.Ident:
		obj := info.Defs[x]
		if obj == nil {
			obj = info.Uses[x]
		}
		if obj == nil || scope == nil {
			return false
		}
		return obj.Parent() == scope.Scope()
	}
	return false
}

// stdPkgPath returns the package path of an out-of-module function, or ""
// when it has no package (builtins).
func stdPkgPath(f *types.Func) string {
	if f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}

// stdQualifiedName renders pkg.Func for diagnostics.
func stdQualifiedName(f *types.Func) string {
	if f.Pkg() == nil {
		return f.Name()
	}
	return f.Pkg().Name() + "." + f.Name()
}

// displayName renders an intra-module function for diagnostics: the bare
// name, receiver-qualified for methods. Call paths stay readable without
// import-path noise; the terminal site carries file:line for precision.
func (ip *Interp) displayName(f *types.Func) string {
	name := f.Name()
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		rt := sig.Recv().Type()
		if ptr, ok := rt.(*types.Pointer); ok {
			rt = ptr.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	return name
}

// AllocPath renders the witness call chain from f down to the allocation
// site: "a → b → c: make at file.go:12". Cycles in the witness chain (an
// allocating recursion) are cut with an ellipsis.
func (ip *Interp) AllocPath(f *types.Func) string {
	var b strings.Builder
	b.WriteString(ip.displayName(f))
	seen := map[*types.Func]bool{f: true}
	cur := ip.summaries[f]
	for cur != nil && cur.AllocVia != nil {
		next := cur.AllocVia
		if seen[next] {
			b.WriteString(" → …")
			break
		}
		seen[next] = true
		b.WriteString(" → ")
		b.WriteString(ip.displayName(next))
		cur = ip.summaries[next]
	}
	if cur != nil && cur.AllocVia == nil && cur.Allocates {
		pos := ip.loader.Fset.Position(cur.AllocPos)
		fmt.Fprintf(&b, ": %s at %s:%d", cur.AllocWhat, filepath.Base(pos.Filename), pos.Line)
	}
	return b.String()
}

// EmitPath renders the witness call chain from f to its output site, in
// the same style as AllocPath.
func (ip *Interp) EmitPath(f *types.Func) string {
	var b strings.Builder
	b.WriteString(ip.displayName(f))
	seen := map[*types.Func]bool{f: true}
	cur := ip.summaries[f]
	for cur != nil && cur.EmitVia != nil {
		next := cur.EmitVia
		if seen[next] {
			b.WriteString(" → …")
			break
		}
		seen[next] = true
		b.WriteString(" → ")
		b.WriteString(ip.displayName(next))
		cur = ip.summaries[next]
	}
	if cur != nil && cur.EmitVia == nil && cur.Emits {
		pos := ip.loader.Fset.Position(cur.EmitPos)
		fmt.Fprintf(&b, ": %s at %s:%d", cur.EmitWhat, filepath.Base(pos.Filename), pos.Line)
	}
	return b.String()
}
