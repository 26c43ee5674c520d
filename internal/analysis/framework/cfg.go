package framework

// This file is the dataflow half of the framework: an intraprocedural
// control-flow graph over go/ast function bodies plus a generic forward
// fixpoint solver. It deliberately stays syntactic — blocks carry ast
// nodes, not SSA values — because the analyzer built on it (bufownership)
// needs exactly the granularity a reader sees in the source, and because
// the repository vendors nothing: like the rest of the framework this is
// stdlib-only.
//
// Shape
//
// A Block is a maximal straight-line sequence of nodes. Its Nodes slice
// holds statements in execution order, with two twists:
//
//   - Condition expressions (if/for conditions, switch tags, range
//     operands) appear as bare ast.Expr nodes in the block that evaluates
//     them, so transfer functions see every evaluation.
//   - A defer statement appears where it executes its *arguments*
//     (ast.DeferStmt), while the deferred call itself (ast.CallExpr)
//     appears in a dedicated "defers" block that every return flows
//     through before Exit — Go's actual execution order, which matters to
//     an ownership analysis (`defer bufpool.Put(buf)` recycles at exit,
//     not at the defer site).
//
// Panics (`panic(...)` and selector calls whose terminal name is Fatal/
// Fatalf/Exit) end their block with no successors: abnormal exits are not
// terminals for leak purposes.
//
// The builder handles if/else, for (including range), switch (expression
// and type, with fallthrough), select, labeled statements, break/continue
// (labeled and bare), and goto. Blocks are numbered in creation order so
// every traversal below is deterministic.

import (
	"fmt"
	"go/ast"
	"sort"
	"strings"
)

// Block is one basic block of a CFG.
type Block struct {
	Index int
	// Kind describes why the block exists ("entry", "if.then", "for.body",
	// "defers", ...) for tests and debug output.
	Kind  string
	Nodes []ast.Node
	Succs []*Block
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	Entry *Block
	// Exit is the single synthetic terminal every normal return reaches
	// (after the defers block, when the function defers anything).
	Exit   *Block
	Blocks []*Block
}

// String renders the graph for tests: one line per block with its kind
// and successor indices.
func (g *CFG) String() string {
	var b strings.Builder
	for _, blk := range g.Blocks {
		succs := make([]string, len(blk.Succs))
		for i, s := range blk.Succs {
			succs[i] = fmt.Sprint(s.Index)
		}
		fmt.Fprintf(&b, "b%d %s [%d nodes] -> %s\n", blk.Index, blk.Kind, len(blk.Nodes), strings.Join(succs, ","))
	}
	return b.String()
}

// cfgBuilder threads the under-construction graph and the targets of
// branch statements through the recursive statement walk.
type cfgBuilder struct {
	g   *CFG
	cur *Block // nil while the walk is in dead code

	// breakTo/continueTo are the innermost loop/switch targets; the label
	// maps extend them for labeled branches.
	breakTo      *Block
	continueTo   *Block
	labelBreak   map[string]*Block
	labelCont    map[string]*Block
	gotoTargets  map[string]*Block
	pendingGotos map[string][]*Block

	defers []*ast.DeferStmt
}

// BuildCFG constructs the control-flow graph of body. A nil body (a
// declaration without one) yields a graph with only entry and exit.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		g:            &CFG{},
		labelBreak:   make(map[string]*Block),
		labelCont:    make(map[string]*Block),
		gotoTargets:  make(map[string]*Block),
		pendingGotos: make(map[string][]*Block),
	}
	entry := b.newBlock("entry")
	b.g.Entry = entry
	b.cur = entry
	if body != nil {
		b.stmtList(body.List)
	}
	// The defers block (when any defer exists) interposes between every
	// normal exit and Exit, carrying the deferred calls in reverse
	// registration order — the order Go runs them.
	exit := b.newBlock("exit")
	b.g.Exit = exit
	var pre *Block // the block terminal paths should edge to
	if len(b.defers) > 0 {
		d := b.newBlock("defers")
		for i := len(b.defers) - 1; i >= 0; i-- {
			d.Nodes = append(d.Nodes, b.defers[i].Call)
		}
		b.edge(d, exit)
		pre = d
	} else {
		pre = exit
	}
	// Fallthrough off the end of the body is an implicit return.
	if b.cur != nil {
		b.edge(b.cur, pre)
	}
	// Rewire return edges (collected against nil) now that pre exists.
	for _, blk := range b.g.Blocks {
		for i, s := range blk.Succs {
			if s == nil {
				blk.Succs[i] = pre
			}
		}
	}
	// Unresolved gotos (labels in dead code or malformed sources parsed
	// leniently): drop them rather than crash.
	for label, sources := range b.pendingGotos {
		if target, ok := b.gotoTargets[label]; ok {
			for _, s := range sources {
				b.edge(s, target)
			}
		}
	}
	return b.g
}

func (b *cfgBuilder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
}

// add appends a node to the current block, opening one if the walk is in
// dead code (so nodes after a return are still carried, just unreachable).
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

func (b *cfgBuilder) stmt(s ast.Stmt) { b.stmtLabeled(s, "") }

// stmtLabeled lowers one statement; label is non-empty when s is the body
// of a LabeledStmt, so loops and switches can register labeled
// break/continue targets.
func (b *cfgBuilder) stmtLabeled(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		condBlock := b.cur
		after := b.newBlock("if.after")
		then := b.newBlock("if.then")
		b.edge(condBlock, then)
		b.cur = then
		b.stmtList(s.Body.List)
		if b.cur != nil {
			b.edge(b.cur, after)
		}
		if s.Else != nil {
			els := b.newBlock("if.else")
			b.edge(condBlock, els)
			b.cur = els
			b.stmt(s.Else)
			if b.cur != nil {
				b.edge(b.cur, after)
			}
		} else {
			b.edge(condBlock, after)
		}
		b.cur = after

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock("for.head")
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		after := b.newBlock("for.after")
		var post *Block
		if s.Post != nil {
			post = b.newBlock("for.post")
			post.Nodes = append(post.Nodes, s.Post)
			b.edge(post, head)
		}
		contTo := head
		if post != nil {
			contTo = post
		}
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
			b.edge(head, after)
		}
		body := b.newBlock("for.body")
		b.edge(head, body)
		b.withLoop(after, contTo, label, func() {
			b.cur = body
			b.stmtList(s.Body.List)
		})
		if b.cur != nil {
			b.edge(b.cur, contTo)
		}
		// A `for {}` with no cond and no break never reaches after; the
		// block simply stays unreachable.
		b.cur = after

	case *ast.RangeStmt:
		head := b.newBlock("range.head")
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		head.Nodes = append(head.Nodes, s.X)
		after := b.newBlock("range.after")
		b.edge(head, after) // empty ranges skip the body
		body := b.newBlock("range.body")
		b.edge(head, body)
		b.withLoop(after, head, label, func() {
			b.cur = body
			// The per-iteration key/value bindings belong to the body.
			if s.Key != nil || s.Value != nil {
				b.add(s)
			}
			b.stmtList(s.Body.List)
		})
		if b.cur != nil {
			b.edge(b.cur, head)
		}
		b.cur = after

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchBody(s.Body, label)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.switchBody(s.Body, label)

	case *ast.SelectStmt:
		head := b.cur
		if head == nil {
			head = b.newBlock("select.head")
			b.cur = head
		}
		after := b.newBlock("select.after")
		prevBreak := b.breakTo
		b.breakTo = after
		any := false
		for _, cl := range s.Body.List {
			comm := cl.(*ast.CommClause)
			cb := b.newBlock("select.case")
			b.edge(head, cb)
			b.cur = cb
			if comm.Comm != nil {
				b.stmt(comm.Comm)
			}
			b.stmtList(comm.Body)
			if b.cur != nil {
				b.edge(b.cur, after)
				any = true
			}
		}
		b.breakTo = prevBreak
		if len(s.Body.List) == 0 {
			b.edge(head, after)
			any = true
		}
		if any {
			b.cur = after
		} else {
			b.cur = after // unreachable but keeps the walk alive
		}

	case *ast.LabeledStmt:
		// The label is simultaneously a goto target and — when the labeled
		// statement is a loop or switch — the name labeled break/continue
		// statements resolve against, which the recursive walk installs.
		target := b.newBlock("label." + s.Label.Name)
		if b.cur != nil {
			b.edge(b.cur, target)
		}
		b.cur = target
		b.gotoTargets[s.Label.Name] = target
		b.stmtLabeled(s.Stmt, s.Label.Name)

	case *ast.BranchStmt:
		b.add(s)
		switch s.Tok.String() {
		case "break":
			t := b.breakTo
			if s.Label != nil {
				t = b.labelBreak[s.Label.Name]
			}
			if t != nil && b.cur != nil {
				b.edge(b.cur, t)
			}
			b.cur = nil
		case "continue":
			t := b.continueTo
			if s.Label != nil {
				t = b.labelCont[s.Label.Name]
			}
			if t != nil && b.cur != nil {
				b.edge(b.cur, t)
			}
			b.cur = nil
		case "goto":
			if s.Label != nil && b.cur != nil {
				if t, ok := b.gotoTargets[s.Label.Name]; ok {
					b.edge(b.cur, t)
				} else {
					b.pendingGotos[s.Label.Name] = append(b.pendingGotos[s.Label.Name], b.cur)
				}
			}
			b.cur = nil
		case "fallthrough":
			// handled by switchBody's clause chaining; nothing here
		}

	case *ast.ReturnStmt:
		b.add(s)
		if b.cur != nil {
			// nil marks "edge to the (defers→)exit chain", patched once
			// the chain exists.
			b.cur.Succs = append(b.cur.Succs, nil)
		}
		b.cur = nil

	case *ast.DeferStmt:
		b.add(s)
		b.defers = append(b.defers, s)

	case *ast.ExprStmt:
		b.add(s)
		if isPanicky(s.X) {
			b.cur = nil // abnormal exit: no successors
		}

	case nil:
		// tolerated: lenient parses can produce nil statements

	default:
		// assignments, declarations, go statements, sends, incdec, empty:
		// plain straight-line nodes
		b.add(s)
	}
}

// switchBody lowers the clauses of a switch or type switch.
func (b *cfgBuilder) switchBody(body *ast.BlockStmt, label string) {
	head := b.cur
	if head == nil {
		head = b.newBlock("switch.head")
		b.cur = head
	}
	after := b.newBlock("switch.after")
	prevBreak := b.breakTo
	b.breakTo = after
	if label != "" {
		b.labelBreak[label] = after
		defer delete(b.labelBreak, label)
	}
	defer func() { b.breakTo = prevBreak }()

	clauses := make([]*ast.CaseClause, 0, len(body.List))
	for _, cl := range body.List {
		if cc, ok := cl.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		blocks[i] = b.newBlock("switch.case")
		b.edge(head, blocks[i])
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(head, after)
	}
	for i, cc := range clauses {
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.add(e)
		}
		fallsThrough := false
		if n := len(cc.Body); n > 0 {
			if br, ok := cc.Body[n-1].(*ast.BranchStmt); ok && br.Tok.String() == "fallthrough" {
				fallsThrough = true
			}
		}
		b.stmtList(cc.Body)
		if fallsThrough && i+1 < len(blocks) {
			if b.cur != nil {
				b.edge(b.cur, blocks[i+1])
			}
			b.cur = nil
			continue
		}
		if b.cur != nil {
			b.edge(b.cur, after)
		}
	}
	b.cur = after
}

// withLoop runs fn with the loop's break/continue targets installed,
// registering them under the loop's label too.
func (b *cfgBuilder) withLoop(brk, cont *Block, label string, fn func()) {
	prevBreak, prevCont := b.breakTo, b.continueTo
	b.breakTo, b.continueTo = brk, cont
	if label != "" {
		b.labelBreak[label] = brk
		b.labelCont[label] = cont
	}
	fn()
	b.breakTo, b.continueTo = prevBreak, prevCont
	if label != "" {
		delete(b.labelBreak, label)
		delete(b.labelCont, label)
	}
}

// isPanicky reports whether a call expression statement never returns:
// panic(...) and terminal selector names that conventionally abort.
func isPanicky(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		switch fun.Sel.Name {
		case "Fatal", "Fatalf", "Exit", "Fatalln":
			return true
		}
	}
	return false
}

// Solve runs a forward dataflow fixpoint over g and returns each block's
// in-state. The analysis is defined by three functions:
//
//   - transfer applies one node's effect to a state (it must not mutate
//     its argument; return a new or shared value),
//   - join merges two states at a control-flow merge point,
//   - equal detects the fixpoint.
//
// entry is the state at function entry. Blocks never reached from Entry do
// not appear in the result. The worklist is processed in ascending block
// order, so iteration — and therefore any diagnostic order downstream —
// is deterministic.
func Solve[S any](g *CFG, entry S, transfer func(S, ast.Node) S, join func(S, S) S, equal func(S, S) bool) map[*Block]S {
	in := make(map[*Block]S, len(g.Blocks))
	in[g.Entry] = entry
	work := map[int]*Block{g.Entry.Index: g.Entry}
	for len(work) > 0 {
		// Lowest-index block first: deterministic and roughly topological.
		keys := make([]int, 0, len(work))
		for k := range work {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		blk := work[keys[0]]
		delete(work, keys[0])

		state := in[blk]
		for _, n := range blk.Nodes {
			state = transfer(state, n)
		}
		for _, succ := range blk.Succs {
			old, ok := in[succ]
			next := state
			if ok {
				next = join(old, state)
			}
			if !ok || !equal(old, next) {
				in[succ] = next
				work[succ.Index] = succ
			}
		}
	}
	return in
}
