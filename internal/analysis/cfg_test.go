package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseFuncBody parses `src` as the body of a function inside a scratch
// package and returns the body. CFG construction needs no type information.
func parseFuncBody(t *testing.T, src string) *ast.BlockStmt {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "t.go", "package p\nfunc f() {\n"+src+"\n}", parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f.Decls[0].(*ast.FuncDecl).Body
}

// kinds returns the Kind of every block in order.
func kinds(g *CFG) []string {
	out := make([]string, len(g.Blocks))
	for i, b := range g.Blocks {
		out[i] = b.Kind
	}
	return out
}

// blockOfKind returns the single block of the given kind, failing on zero
// or several.
func blockOfKind(t *testing.T, g *CFG, kind string) *Block {
	t.Helper()
	var found *Block
	for _, b := range g.Blocks {
		if b.Kind == kind {
			if found != nil {
				t.Fatalf("multiple %q blocks", kind)
			}
			found = b
		}
	}
	if found == nil {
		t.Fatalf("no %q block in %v", kind, kinds(g))
	}
	return found
}

func hasEdge(from, to *Block) bool {
	for _, s := range from.Succs {
		if s == to {
			return true
		}
	}
	return false
}

func TestCFGStraightLine(t *testing.T) {
	g := BuildCFG(parseFuncBody(t, `x := 1; y := x + 1; _ = y`))
	if len(g.Entry.Nodes) != 3 {
		t.Fatalf("entry has %d nodes, want 3", len(g.Entry.Nodes))
	}
	if !hasEdge(g.Entry, g.Exit) {
		t.Fatal("entry does not reach exit directly")
	}
	if g.Blocks[0] != g.Entry || g.Blocks[len(g.Blocks)-1] != g.Exit {
		t.Fatal("Blocks must list Entry first and Exit last")
	}
}

func TestCFGNilBody(t *testing.T) {
	g := BuildCFG(nil)
	if !hasEdge(g.Entry, g.Exit) {
		t.Fatal("nil body must still yield entry→exit")
	}
}

func TestCFGIfElse(t *testing.T) {
	g := BuildCFG(parseFuncBody(t, `
		x := 1
		if x > 0 {
			x = 2
		} else {
			x = 3
		}
		_ = x`))
	then := blockOfKind(t, g, "if-then")
	els := blockOfKind(t, g, "if-else")
	after := blockOfKind(t, g, "if-after")
	if !hasEdge(g.Entry, then) || !hasEdge(g.Entry, els) {
		t.Fatal("condition block must branch to then and else")
	}
	if hasEdge(g.Entry, after) {
		t.Fatal("with an else, the condition must not fall through to after")
	}
	if !hasEdge(then, after) || !hasEdge(els, after) {
		t.Fatal("both arms must rejoin at after")
	}
}

func TestCFGIfWithoutElse(t *testing.T) {
	g := BuildCFG(parseFuncBody(t, `
		x := 1
		if x > 0 {
			x = 2
		}
		_ = x`))
	after := blockOfKind(t, g, "if-after")
	if !hasEdge(g.Entry, after) {
		t.Fatal("without an else, the false branch must go straight to after")
	}
}

func TestCFGForLoop(t *testing.T) {
	g := BuildCFG(parseFuncBody(t, `
		s := 0
		for i := 0; i < 10; i++ {
			s += i
		}
		_ = s`))
	head := blockOfKind(t, g, "for-head")
	body := blockOfKind(t, g, "for-body")
	post := blockOfKind(t, g, "for-post")
	after := blockOfKind(t, g, "for-after")
	if !hasEdge(head, body) || !hasEdge(body, post) || !hasEdge(post, head) {
		t.Fatal("head→body→post→head cycle missing")
	}
	if !hasEdge(head, after) {
		t.Fatal("conditional loop must exit via head→after")
	}
}

func TestCFGForWithoutCondNoExitEdge(t *testing.T) {
	g := BuildCFG(parseFuncBody(t, `
		for {
			if done() {
				break
			}
		}`))
	head := blockOfKind(t, g, "for-head")
	after := blockOfKind(t, g, "for-after")
	if hasEdge(head, after) {
		t.Fatal("for{} has no false-condition exit; only break leaves it")
	}
	ifAfter := blockOfKind(t, g, "if-after")
	then := blockOfKind(t, g, "if-then")
	if !hasEdge(then, after) {
		t.Fatal("break must jump to for-after")
	}
	if !hasEdge(ifAfter, head) {
		t.Fatal("loop body must cycle back to head")
	}
}

func TestCFGBreakContinue(t *testing.T) {
	g := BuildCFG(parseFuncBody(t, `
		for i := 0; i < 10; i++ {
			if i == 3 {
				continue
			}
			if i == 7 {
				break
			}
		}`))
	post := blockOfKind(t, g, "for-post")
	after := blockOfKind(t, g, "for-after")
	var continues, breaks int
	for _, b := range post.Preds {
		if b.Kind == "if-then" {
			continues++
		}
	}
	for _, b := range after.Preds {
		if b.Kind == "if-then" {
			breaks++
		}
	}
	if continues != 1 {
		t.Fatalf("continue edges into post: %d, want 1", continues)
	}
	if breaks != 1 {
		t.Fatalf("break edges into after: %d, want 1", breaks)
	}
}

func TestCFGLabeledBreak(t *testing.T) {
	g := BuildCFG(parseFuncBody(t, `
	outer:
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				if i+j > 3 {
					break outer
				}
			}
		}`))
	then := blockOfKind(t, g, "if-then")
	// break outer must target the *outer* loop's after block, which the
	// builder creates before descending into the inner loop.
	if len(then.Succs) != 1 {
		t.Fatalf("break block has %d succs, want 1", len(then.Succs))
	}
	var afters []*Block
	for _, b := range g.Blocks {
		if b.Kind == "for-after" {
			afters = append(afters, b)
		}
	}
	if len(afters) != 2 || then.Succs[0] != afters[0] {
		t.Fatalf("break outer lands on %q, want the outer for-after", then.Succs[0].Kind)
	}
}

func TestCFGRange(t *testing.T) {
	g := BuildCFG(parseFuncBody(t, `
		xs := []int{1, 2}
		s := 0
		for _, x := range xs {
			s += x
		}
		_ = s`))
	head := blockOfKind(t, g, "range-head")
	body := blockOfKind(t, g, "range-body")
	after := blockOfKind(t, g, "range-after")
	if len(head.Nodes) != 1 {
		t.Fatalf("range head carries %d nodes, want the RangeStmt only", len(head.Nodes))
	}
	if _, ok := head.Nodes[0].(*ast.RangeStmt); !ok {
		t.Fatalf("range head carries %T, want *ast.RangeStmt", head.Nodes[0])
	}
	if !hasEdge(head, body) || !hasEdge(body, head) || !hasEdge(head, after) {
		t.Fatal("range must cycle head↔body and exit head→after")
	}
}

func TestCFGSwitch(t *testing.T) {
	g := BuildCFG(parseFuncBody(t, `
		x := 1
		switch x {
		case 1:
			x = 10
		case 2:
			x = 20
		}
		_ = x`))
	after := blockOfKind(t, g, "switch-after")
	var cases []*Block
	for _, b := range g.Blocks {
		if b.Kind == "case" {
			cases = append(cases, b)
		}
	}
	if len(cases) != 2 {
		t.Fatalf("%d case blocks, want 2", len(cases))
	}
	for _, c := range cases {
		if !hasEdge(g.Entry, c) || !hasEdge(c, after) {
			t.Fatal("each case must be entered from the head and rejoin after")
		}
	}
	if !hasEdge(g.Entry, after) {
		t.Fatal("switch without default must have a no-match edge to after")
	}
}

func TestCFGSwitchDefaultAndFallthrough(t *testing.T) {
	g := BuildCFG(parseFuncBody(t, `
		x := 1
		switch x {
		case 1:
			x = 10
			fallthrough
		case 2:
			x = 20
		default:
			x = 30
		}
		_ = x`))
	after := blockOfKind(t, g, "switch-after")
	if hasEdge(g.Entry, after) {
		t.Fatal("switch with default has no no-match edge to after")
	}
	var cases []*Block
	for _, b := range g.Blocks {
		if b.Kind == "case" {
			cases = append(cases, b)
		}
	}
	if len(cases) != 3 {
		t.Fatalf("%d case blocks, want 3", len(cases))
	}
	if !hasEdge(cases[0], cases[1]) {
		t.Fatal("fallthrough must link case 1 to case 2")
	}
	if hasEdge(cases[0], after) {
		t.Fatal("a case ending in fallthrough does not reach after directly")
	}
}

func TestCFGSelect(t *testing.T) {
	g := BuildCFG(parseFuncBody(t, `
		a := make(chan int)
		b := make(chan int)
		select {
		case v := <-a:
			_ = v
		case b <- 1:
		default:
		}`))
	after := blockOfKind(t, g, "select-after")
	var comms []*Block
	for _, b := range g.Blocks {
		if b.Kind == "comm" {
			comms = append(comms, b)
		}
	}
	if len(comms) != 3 {
		t.Fatalf("%d comm blocks, want 3", len(comms))
	}
	for _, c := range comms {
		if !hasEdge(g.Entry, c) || !hasEdge(c, after) {
			t.Fatal("each comm clause must be entered from the head and rejoin after")
		}
	}
	if _, ok := g.Entry.Nodes[len(g.Entry.Nodes)-1].(*ast.SelectStmt); !ok {
		t.Fatal("the SelectStmt itself must sit in the head block")
	}
}

func TestCFGReturnAndDefer(t *testing.T) {
	g := BuildCFG(parseFuncBody(t, `
		defer cleanup()
		x := 1
		if x > 0 {
			return
		}
		_ = x`))
	if _, ok := g.Entry.Nodes[0].(*ast.DeferStmt); !ok {
		t.Fatalf("entry starts with %T, want the defer statement", g.Entry.Nodes[0])
	}
	then := blockOfKind(t, g, "if-then")
	if !hasEdge(then, g.Exit) {
		t.Fatal("return must edge to Exit")
	}
}

func TestCFGPanicTerminates(t *testing.T) {
	g := BuildCFG(parseFuncBody(t, `
		x := 1
		if x > 0 {
			panic("boom")
		}
		_ = x`))
	then := blockOfKind(t, g, "if-then")
	if len(then.Succs) != 1 || then.Succs[0] != g.Exit {
		t.Fatal("panic must terminate the path straight to Exit")
	}
	after := blockOfKind(t, g, "if-after")
	if hasEdge(then, after) {
		t.Fatal("the panicking arm must not rejoin after")
	}
}

func TestCFGGoto(t *testing.T) {
	g := BuildCFG(parseFuncBody(t, `
		i := 0
	again:
		i++
		if i < 3 {
			goto again
		}`))
	label := blockOfKind(t, g, "label again")
	then := blockOfKind(t, g, "if-then")
	if !hasEdge(then, label) {
		t.Fatal("goto must edge back to the labeled block")
	}
}

func TestCFGFuncLitOpaque(t *testing.T) {
	g := BuildCFG(parseFuncBody(t, `
		f := func() {
			for {
			}
		}
		f()`))
	for _, b := range g.Blocks {
		if b.Kind == "for-head" {
			t.Fatal("a nested literal's loop must not contribute blocks to the outer CFG")
		}
	}
}
