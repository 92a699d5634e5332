package analysis

import (
	"go/ast"
	"go/token"
)

// This file is the control-flow half of the dataflow engine: it lowers one
// function body (never crossing into nested function literals — those are
// separate control flows) into basic blocks with explicit branch, loop,
// defer, and abnormal-exit edges. ctxflow, the one analyzer that reasons
// about *paths*, is built on it; the AST-pattern analyzers only reason
// about expression shapes.

// A Block is one basic block: a maximal run of statements with a single
// entry at the top, plus the control expression of any branch that ends it.
type Block struct {
	// Index is the block's position in CFG.Blocks, usable as a dense key.
	Index int
	// Kind describes why the block exists, for debugging and tests.
	Kind string
	// Nodes holds the statements and control expressions of the block in
	// execution order. Control headers (an if/switch condition, a range
	// expression) appear in the block that evaluates them.
	Nodes []ast.Node
	// Succs are the possible successor blocks.
	Succs []*Block
	// Preds are the predecessor blocks (the reverse of Succs).
	Preds []*Block
}

// A CFG is the control-flow graph of one function body.
type CFG struct {
	// Entry is the unique entry block; Exit is the unique exit block that
	// every return and normal fall-off-the-end path reaches.
	Entry, Exit *Block
	// Blocks lists every block, Entry first and Exit last.
	Blocks []*Block
}

// BuildCFG lowers a function body into a control-flow graph. body may be
// nil (a declared function without a body), yielding a trivial Entry→Exit
// graph. Function literals inside the body are treated as opaque values:
// their bodies get their own CFG when the caller asks for one.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:    &CFG{},
		labels: map[string]*labelInfo{},
	}
	b.cfg.Entry = b.newBlock("entry")
	b.cfg.Exit = &Block{Kind: "exit"}
	b.cur = b.cfg.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	b.jump(b.cfg.Exit)
	b.resolveGotos()
	b.cfg.Exit.Index = len(b.cfg.Blocks)
	b.cfg.Blocks = append(b.cfg.Blocks, b.cfg.Exit)
	return b.cfg
}

// labelInfo tracks one label's targets while the builder is in scope.
type labelInfo struct {
	// block is the labeled statement's block (the goto target).
	block *Block
	// breakTo / continueTo are set while the labeled loop/switch is being
	// built, for `break L` / `continue L`.
	breakTo, continueTo *Block
}

type pendingGoto struct {
	from  *Block
	label string
}

type cfgBuilder struct {
	cfg *CFG
	// cur is the block under construction; nil after a terminating
	// statement (return, break, panic) until a new block starts.
	cur *Block
	// breakTo / continueTo are the innermost unlabeled break/continue
	// targets (nil outside loops and switches).
	breakTo, continueTo *Block
	labels              map[string]*labelInfo
	gotos               []pendingGoto
	// curLabel is the label attached to the statement about to be built,
	// so `for`/`switch` register their labeled break/continue targets.
	curLabel string
}

func (b *cfgBuilder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Kind: kind}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// link records an edge a→b.
func link(a, c *Block) {
	a.Succs = append(a.Succs, c)
	c.Preds = append(c.Preds, a)
}

// jump ends the current block with an edge to target (no-op when the
// current path already terminated).
func (b *cfgBuilder) jump(target *Block) {
	if b.cur != nil {
		link(b.cur, target)
	}
	b.cur = nil
}

// startBlock begins a new current block, linking it from the previous one
// when the previous path falls through.
func (b *cfgBuilder) startBlock(kind string) *Block {
	blk := b.newBlock(kind)
	if b.cur != nil {
		link(b.cur, blk)
	}
	b.cur = blk
	return blk
}

// add appends a node to the current block, starting one if the previous
// statement terminated (such code is unreachable, but it still gets blocks
// so positions remain addressable).
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	// Any statement other than the one a label is attached to clears the
	// pending label.
	label := b.curLabel
	b.curLabel = ""
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.LabeledStmt:
		// The labeled statement starts its own block so gotos can target it.
		blk := b.startBlock("label " + s.Label.Name)
		li := &labelInfo{block: blk}
		b.labels[s.Label.Name] = li
		b.curLabel = s.Label.Name
		b.stmt(s.Stmt)
	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.cfg.Exit)
	case *ast.BranchStmt:
		b.branch(s)
	case *ast.DeferStmt:
		b.add(s)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, label)
	case *ast.RangeStmt:
		b.rangeStmt(s, label)
	case *ast.SwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchBody(s.Body, label, true)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.switchBody(s.Body, label, false)
	case *ast.SelectStmt:
		b.selectStmt(s, label)
	case *ast.ExprStmt:
		b.add(s)
		if isTerminatingCall(s.X) {
			b.jump(b.cfg.Exit)
		}
	default:
		// Assignments, declarations, sends, inc/dec, go, empty: straight-line.
		b.add(s)
	}
}

// branch lowers break/continue/goto/fallthrough. fallthrough is handled by
// switchBody (it needs the next case's block), so it is skipped here.
func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	b.add(s)
	switch s.Tok {
	case token.BREAK:
		target := b.breakTo
		if s.Label != nil {
			if li := b.labels[s.Label.Name]; li != nil {
				target = li.breakTo
			}
		}
		if target != nil {
			b.jump(target)
		} else {
			b.cur = nil // malformed code; terminate the path
		}
	case token.CONTINUE:
		target := b.continueTo
		if s.Label != nil {
			if li := b.labels[s.Label.Name]; li != nil {
				target = li.continueTo
			}
		}
		if target != nil {
			b.jump(target)
		} else {
			b.cur = nil
		}
	case token.GOTO:
		if s.Label != nil && b.cur != nil {
			b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: s.Label.Name})
		}
		b.cur = nil
	case token.FALLTHROUGH:
		// switchBody links the edge; keep the path open so it can.
	}
}

func (b *cfgBuilder) resolveGotos() {
	for _, g := range b.gotos {
		if li := b.labels[g.label]; li != nil {
			link(g.from, li.block)
		}
	}
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Cond) // add guarantees a current block
	cond := b.cur
	after := b.newBlock("if-after")

	b.cur = b.newBlock("if-then")
	link(cond, b.cur)
	b.stmtList(s.Body.List)
	b.jump(after)

	if s.Else != nil {
		b.cur = b.newBlock("if-else")
		link(cond, b.cur)
		b.stmt(s.Else)
		b.jump(after)
	} else {
		link(cond, after)
	}
	b.cur = after
}

// loopTargets installs break/continue targets (and the label's, when the
// loop is labeled) and returns a restore function.
func (b *cfgBuilder) loopTargets(label string, breakTo, continueTo *Block) func() {
	prevB, prevC := b.breakTo, b.continueTo
	b.breakTo, b.continueTo = breakTo, continueTo
	if label != "" {
		if li := b.labels[label]; li != nil {
			li.breakTo, li.continueTo = breakTo, continueTo
		}
	}
	return func() { b.breakTo, b.continueTo = prevB, prevC }
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	entry := b.cur

	head := b.newBlock("for-head")
	if entry != nil {
		link(entry, head)
	}
	if s.Cond != nil {
		head.Nodes = append(head.Nodes, s.Cond)
	}
	var post *Block
	if s.Post != nil {
		post = b.newBlock("for-post")
		post.Nodes = append(post.Nodes, s.Post)
		link(post, head)
	}
	continueTo := head
	if post != nil {
		continueTo = post
	}

	body := b.newBlock("for-body")
	link(head, body)
	after := b.newBlock("for-after")
	if s.Cond != nil {
		link(head, after) // condition false exits the loop
	}

	restore := b.loopTargets(label, after, continueTo)
	b.cur = body
	b.stmtList(s.Body.List)
	b.jump(continueTo)
	restore()
	b.cur = after
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt, label string) {
	entry := b.cur

	head := b.newBlock("range-head")
	if entry != nil {
		link(entry, head)
	}
	// The RangeStmt node itself sits in the head, where the ranged
	// expression is evaluated.
	head.Nodes = append(head.Nodes, s)

	body := b.newBlock("range-body")
	link(head, body)
	after := b.newBlock("range-after")
	link(head, after) // every range loop can be exhausted

	restore := b.loopTargets(label, after, head)
	b.cur = body
	b.stmtList(s.Body.List)
	b.jump(head)
	restore()
	b.cur = after
}

// switchBody lowers the clause list shared by switch and type switch.
// allowFallthrough distinguishes expression switches (type switches cannot
// fall through).
func (b *cfgBuilder) switchBody(body *ast.BlockStmt, label string, allowFallthrough bool) {
	head := b.cur
	if head == nil {
		head = b.startBlock("switch-head")
	}
	after := b.newBlock("switch-after")

	// A switch is a break target but not a continue target; passing the
	// enclosing continueTo through keeps `continue` inside a case legal.
	restore := b.loopTargets(label, after, b.continueTo)

	var clauses []*ast.CaseClause
	for _, cs := range body.List {
		if cc, ok := cs.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		blocks[i] = b.newBlock("case")
		link(head, blocks[i])
		if cc.List == nil {
			hasDefault = true
		}
		for _, e := range cc.List {
			blocks[i].Nodes = append(blocks[i].Nodes, e)
		}
	}
	if !hasDefault {
		link(head, after) // no case matched
	}
	for i, cc := range clauses {
		b.cur = blocks[i]
		b.stmtList(cc.Body)
		if allowFallthrough && endsInFallthrough(cc.Body) && i+1 < len(clauses) {
			b.jump(blocks[i+1])
		} else {
			b.jump(after)
		}
	}
	restore()
	b.cur = after
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt, label string) {
	head := b.cur
	if head == nil {
		head = b.startBlock("select-head")
	}
	head.Nodes = append(head.Nodes, s)
	after := b.newBlock("select-after")

	restore := b.loopTargets(label, after, b.continueTo)
	for _, cs := range s.Body.List {
		cc, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock("comm")
		link(head, blk)
		if cc.Comm != nil {
			blk.Nodes = append(blk.Nodes, cc.Comm)
		}
		b.cur = blk
		b.stmtList(cc.Body)
		b.jump(after)
	}
	restore()
	b.cur = after
}

// endsInFallthrough reports whether a case body's last statement is
// fallthrough.
func endsInFallthrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

// isTerminatingCall recognizes calls that never return, syntactically:
// panic(...) and os.Exit(...). The check is name-based because the builder
// runs without type information in tests; shadowing `panic` would be
// perverse enough to ignore.
func isTerminatingCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if pkg, ok := fun.X.(*ast.Ident); ok {
			return pkg.Name == "os" && fun.Sel.Name == "Exit"
		}
	}
	return false
}
