package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// typecheckFile parses and type-checks one import-free source file.
func typecheckFile(t *testing.T, src string) (*ast.File, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "t.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return f, info
}

// funcNamed returns the declaration of the named function.
func funcNamed(t *testing.T, f *ast.File, name string) *ast.FuncDecl {
	t.Helper()
	for _, decl := range f.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name == name {
			return fn
		}
	}
	t.Fatalf("no function %q", name)
	return nil
}

// varNamed returns the unique defined variable with the given name.
func varNamed(t *testing.T, info *types.Info, name string) *types.Var {
	t.Helper()
	var found *types.Var
	for _, obj := range info.Defs {
		if v, ok := obj.(*types.Var); ok && v.Name() == name {
			if found != nil && found != v {
				t.Fatalf("variable name %q is ambiguous in this test source", name)
			}
			found = v
		}
	}
	if found == nil {
		t.Fatalf("no variable %q", name)
	}
	return found
}

// returnBlock locates the block carrying the function's (single) return.
func returnBlock(t *testing.T, g *CFG, fn *ast.FuncDecl) *Block {
	t.Helper()
	var ret *ast.ReturnStmt
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if r, ok := n.(*ast.ReturnStmt); ok {
			ret = r
		}
		return true
	})
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			if n == ret {
				return blk
			}
		}
	}
	t.Fatal("return statement not found in any block")
	return nil
}

// identDerived is the simplest Derived hook: an identifier currently in the
// set, or a call receiving a derived argument.
func identDerived(info *types.Info) func(ast.Expr, TaintSet) bool {
	var derived func(ast.Expr, TaintSet) bool
	derived = func(e ast.Expr, set TaintSet) bool {
		switch e := e.(type) {
		case *ast.Ident:
			obj := info.Uses[e]
			if obj == nil {
				obj = info.Defs[e]
			}
			return obj != nil && set[obj]
		case *ast.CallExpr:
			for _, a := range e.Args {
				if derived(a, set) {
					return true
				}
			}
		}
		return false
	}
	return derived
}

// TestTaintMayVsMust pins the semantics split on the branch-overwrite
// shape: under may/union the merged value still counts as tainted (it is on
// one path), under must/intersection it does not (it is clean on the other).
func TestTaintMayVsMust(t *testing.T) {
	const src = `package p
func g(s string, c bool) string {
	v := s
	if c {
		v = "fresh"
	}
	return v
}`
	f, info := typecheckFile(t, src)
	fn := funcNamed(t, f, "g")
	s := varNamed(t, info, "s")
	v := varNamed(t, info, "v")
	g := BuildCFG(fn.Body)

	may := &TaintProblem{Info: info, Seeds: []types.Object{s}, Derived: identDerived(info)}
	mayIn := SolveTaint(g, may).In[returnBlock(t, g, fn).Index]
	if !mayIn[s] || !mayIn[v] {
		t.Fatalf("may-analysis at return: got s=%v v=%v, want both tainted", mayIn[s], mayIn[v])
	}

	must := &TaintProblem{
		Info: info, Seeds: []types.Object{s}, Derived: identDerived(info),
		Must: true, Universe: []types.Object{s, v},
	}
	facts := SolveTaint(g, must)
	mustIn := facts.In[returnBlock(t, g, fn).Index]
	if !mustIn[s] || mustIn[v] {
		t.Fatalf("must-analysis at return: got s=%v v=%v, want s tainted and v not", mustIn[s], mustIn[v])
	}
	// The strong update itself: inside the then-branch v is overwritten with
	// an underived value, so its out-fact drops v on both semantics.
	var then *Block
	for _, b := range g.Blocks {
		if b.Kind == "if-then" {
			then = b
		}
	}
	if out := facts.Out[then.Index]; out[v] {
		t.Fatal("reassignment from an underived value must kill the taint in-block")
	}
}

// TestTaintLoopMustKeepsSeed guards the optimistic-initialization choice:
// a must analysis seeded at entry must not lose a fact at a loop head just
// because the back edge has not stabilized yet.
func TestTaintLoopMustKeepsSeed(t *testing.T) {
	const src = `package p
func wrap(x string) string { return x }
func h(s string, n int) string {
	out := s
	for i := 0; i < n; i++ {
		out = wrap(out)
	}
	return out
}`
	f, info := typecheckFile(t, src)
	fn := funcNamed(t, f, "h")
	s := varNamed(t, info, "s")
	out := varNamed(t, info, "out")
	g := BuildCFG(fn.Body)

	prob := &TaintProblem{
		Info: info, Seeds: []types.Object{s}, Derived: identDerived(info),
		Must: true, Universe: []types.Object{s, out},
	}
	facts := SolveTaint(g, prob)
	var body *Block
	for _, b := range g.Blocks {
		if b.Kind == "for-body" {
			body = b
		}
	}
	if in := facts.In[body.Index]; !in[out] {
		t.Fatal("out must stay derived at the loop body under must semantics")
	}
	if in := facts.In[returnBlock(t, g, fn).Index]; !in[out] {
		t.Fatal("out must stay derived after the loop")
	}
}

// TestTaintTracksFilter checks that untracked objects never enter the set.
func TestTaintTracksFilter(t *testing.T) {
	const src = `package p
func k(s string) string {
	a := s
	b := s
	return a + b
}`
	f, info := typecheckFile(t, src)
	fn := funcNamed(t, f, "k")
	s := varNamed(t, info, "s")
	a := varNamed(t, info, "a")
	b := varNamed(t, info, "b")
	g := BuildCFG(fn.Body)

	prob := &TaintProblem{
		Info:  info,
		Seeds: []types.Object{s},
		Tracks: func(o types.Object) bool {
			return o.Name() != "b"
		},
		Derived: identDerived(info),
	}
	// The whole body is one straight-line block, so the writes show up in
	// the entry block's out-fact.
	facts := SolveTaint(g, prob)
	got := facts.Out[g.Entry.Index]
	if !got[a] || got[b] {
		t.Fatalf("tracks filter: got a=%v b=%v, want a tainted and b excluded", got[a], got[b])
	}
}
