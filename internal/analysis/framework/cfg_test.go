package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseFunc returns the body of the first function in src.
func parseFunc(t *testing.T, src string) *ast.BlockStmt {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "t.go", "package p\n"+src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			return fd.Body
		}
	}
	t.Fatal("no function in source")
	return nil
}

// reachesExit reports whether Exit is reachable from Entry.
func reachesExit(g *CFG) bool {
	seen := map[*Block]bool{}
	var walk func(*Block) bool
	walk = func(b *Block) bool {
		if b == g.Exit {
			return true
		}
		if seen[b] {
			return false
		}
		seen[b] = true
		for _, s := range b.Succs {
			if walk(s) {
				return true
			}
		}
		return false
	}
	return walk(g.Entry)
}

func TestCFGStraightLine(t *testing.T) {
	g := BuildCFG(parseFunc(t, `func f() { x := 1; _ = x }`))
	if len(g.Entry.Nodes) != 2 {
		t.Fatalf("entry nodes = %d, want 2\n%s", len(g.Entry.Nodes), g)
	}
	if len(g.Entry.Succs) != 1 || g.Entry.Succs[0] != g.Exit {
		t.Fatalf("entry should flow straight to exit\n%s", g)
	}
}

func TestCFGIfElseJoins(t *testing.T) {
	g := BuildCFG(parseFunc(t, `func f(b bool) int {
		if b {
			return 1
		}
		return 2
	}`))
	// The then-branch returns; the implicit else path reaches the second
	// return. Both return blocks must edge to Exit.
	intoExit := 0
	for _, blk := range g.Blocks {
		for _, s := range blk.Succs {
			if s == g.Exit {
				intoExit++
			}
		}
	}
	if intoExit != 2 {
		t.Fatalf("edges into exit = %d, want 2\n%s", intoExit, g)
	}
}

func TestCFGForLoopBackEdge(t *testing.T) {
	g := BuildCFG(parseFunc(t, `func f() {
		for i := 0; i < 3; i++ {
			_ = i
		}
	}`))
	var head *Block
	for _, blk := range g.Blocks {
		if blk.Kind == "for.head" {
			head = blk
		}
	}
	if head == nil {
		t.Fatalf("no for.head block\n%s", g)
	}
	// The post block must edge back to the head (the loop's back edge).
	back := false
	for _, blk := range g.Blocks {
		if blk.Kind == "for.post" {
			for _, s := range blk.Succs {
				if s == head {
					back = true
				}
			}
		}
	}
	if !back {
		t.Fatalf("no back edge from for.post to for.head\n%s", g)
	}
	if !reachesExit(g) {
		t.Fatalf("bounded loop must reach exit\n%s", g)
	}
}

func TestCFGInfiniteLoopNoExit(t *testing.T) {
	g := BuildCFG(parseFunc(t, `func f() { for { } }`))
	if reachesExit(g) {
		t.Fatalf("for{} without break must not reach exit\n%s", g)
	}
}

func TestCFGBreakReachesAfter(t *testing.T) {
	g := BuildCFG(parseFunc(t, `func f() {
		for {
			break
		}
		_ = 1
	}`))
	if !reachesExit(g) {
		t.Fatalf("break must make exit reachable\n%s", g)
	}
}

func TestCFGLabeledBreak(t *testing.T) {
	g := BuildCFG(parseFunc(t, `func f() {
	outer:
		for {
			for {
				break outer
			}
		}
		_ = 1
	}`))
	if !reachesExit(g) {
		t.Fatalf("labeled break out of both loops must reach exit\n%s", g)
	}
}

func TestCFGSwitchFallthrough(t *testing.T) {
	g := BuildCFG(parseFunc(t, `func f(x int) {
		switch x {
		case 1:
			fallthrough
		case 2:
			_ = x
		default:
			_ = x
		}
	}`))
	// Three case blocks; the first must edge into the second (fallthrough)
	// and not into switch.after.
	var cases []*Block
	for _, blk := range g.Blocks {
		if blk.Kind == "switch.case" {
			cases = append(cases, blk)
		}
	}
	if len(cases) != 3 {
		t.Fatalf("case blocks = %d, want 3\n%s", len(cases), g)
	}
	if len(cases[0].Succs) != 1 || cases[0].Succs[0] != cases[1] {
		t.Fatalf("fallthrough case must edge only into the next case\n%s", g)
	}
}

func TestCFGDefersRunBeforeExit(t *testing.T) {
	g := BuildCFG(parseFunc(t, `func f(b bool) {
		defer done()
		if b {
			return
		}
		other()
	}`))
	var defers *Block
	for _, blk := range g.Blocks {
		if blk.Kind == "defers" {
			defers = blk
		}
	}
	if defers == nil {
		t.Fatalf("no defers block\n%s", g)
	}
	if len(defers.Nodes) != 1 {
		t.Fatalf("defers nodes = %d, want 1 (the deferred call)", len(defers.Nodes))
	}
	if _, ok := defers.Nodes[0].(*ast.CallExpr); !ok {
		t.Fatalf("defers block node is %T, want *ast.CallExpr", defers.Nodes[0])
	}
	// Every edge into Exit must come from the defers block.
	for _, blk := range g.Blocks {
		for _, s := range blk.Succs {
			if s == g.Exit && blk != defers {
				t.Fatalf("b%d bypasses defers into exit\n%s", blk.Index, g)
			}
		}
	}
}

func TestCFGPanicIsNotATerminal(t *testing.T) {
	g := BuildCFG(parseFunc(t, `func f(b bool) {
		if b {
			panic("boom")
		}
	}`))
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			if es, ok := n.(*ast.ExprStmt); ok && isPanicky(es.X) {
				if len(blk.Succs) != 0 {
					t.Fatalf("panic block has successors\n%s", g)
				}
				return
			}
		}
	}
	t.Fatalf("panic statement not found in any block\n%s", g)
}

func TestCFGRangeLoop(t *testing.T) {
	g := BuildCFG(parseFunc(t, `func f(xs []int) {
		for _, x := range xs {
			_ = x
		}
	}`))
	var head *Block
	for _, blk := range g.Blocks {
		if blk.Kind == "range.head" {
			head = blk
		}
	}
	if head == nil || len(head.Succs) != 2 {
		t.Fatalf("range head must branch to after and body\n%s", g)
	}
	if !reachesExit(g) {
		t.Fatalf("range loop must reach exit\n%s", g)
	}
}

func TestCFGGoto(t *testing.T) {
	g := BuildCFG(parseFunc(t, `func f(b bool) {
		if b {
			goto out
		}
		work()
	out:
		done()
	}`))
	if !reachesExit(g) {
		t.Fatalf("goto forward must reach exit\n%s", g)
	}
	if !strings.Contains(g.String(), "label.out") {
		t.Fatalf("no label block\n%s", g)
	}
}

// TestSolveMustAccounted exercises the fixpoint solver with a small
// must-analysis: "has flag() been called on every path?" — a join by AND.
func TestSolveMustAccounted(t *testing.T) {
	body := parseFunc(t, `func f(a, b bool) {
		if a {
			flag()
		} else {
			if b {
				flag()
			}
		}
		sink()
	}`)
	g := BuildCFG(body)
	transfer := func(s bool, n ast.Node) bool {
		found := s
		ast.Inspect(n, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "flag" {
					found = true
				}
			}
			return true
		})
		return found
	}
	join := func(a, b bool) bool { return a && b }
	eq := func(a, b bool) bool { return a == b }
	in := Solve(g, false, transfer, join, eq)
	// At exit, flag() was NOT called on the path a=false,b=false, so the
	// must-state is false.
	if got, ok := in[g.Exit]; !ok || got {
		t.Fatalf("exit must-state = %v (present=%v), want false", got, ok)
	}
}

// TestSolveLoopFixpoint pins termination and the may-join on a loop.
func TestSolveLoopFixpoint(t *testing.T) {
	body := parseFunc(t, `func f(n int) {
		for i := 0; i < n; i++ {
			mark()
		}
	}`)
	g := BuildCFG(body)
	transfer := func(s bool, n ast.Node) bool {
		found := s
		ast.Inspect(n, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "mark" {
					found = true
				}
			}
			return true
		})
		return found
	}
	join := func(a, b bool) bool { return a || b } // may-analysis
	eq := func(a, b bool) bool { return a == b }
	in := Solve(g, false, transfer, join, eq)
	if got := in[g.Exit]; !got {
		t.Fatalf("may-state at exit = false, want true (loop body may run)")
	}
}
