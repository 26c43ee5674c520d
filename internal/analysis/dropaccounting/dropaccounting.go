// Package dropaccounting enforces packet conservation: code that discards
// a packet, frame, or datagram must account for the discard.
//
// The simulator's telemetry proves encap = decap + drops only because
// every path that gives up on a packet touches a drop counter, a stats
// field with a drop-ish name, or records a trace/packet-log event. This
// analyzer finds the paths that silently leak: inside any function that
// takes a *ip.Packet, *link.Frame, or transport.Datagram, an `if` block
// that ends by returning nothing-but-zero-values (the discard idiom) and
// contains no accounting touch is flagged.
//
// Accounting is recognized as any of:
//   - a call whose selector chain mentions "drop" (d.ctr.dropMTU.Inc()),
//   - an increment/compound assignment to a field whose name says what
//     happened (DropX, Expired, Denied, Exhausted, NoSocket, Bad...),
//   - a call to a Record method (packet log or tracer) or to the trace
//     wrapper an agent keeps over its tracer — discarding after
//     writing the event into the timeline is accounted by definition,
//   - a call whose name says the packet went onward instead (Send, SendTo,
//     reply, relay, transmit, broadcastRaw, ...) — a path that forwards or
//     answers did not drop.
//
// Paths that return a real value or a non-nil error hand the packet (or
// the responsibility for it) back to the caller and are not discards.
// False positives — a fragment parked in a reassembly buffer is retained,
// not dropped — take a `//lint:allow dropaccounting <reason>` directive,
// which doubles as documentation of why conservation still holds.
package dropaccounting

import (
	"go/ast"
	"go/token"
	"regexp"

	"mosquitonet/internal/analysis/framework"
)

// Analyzer implements the check.
var Analyzer = &framework.Analyzer{
	Name: "dropaccounting",
	Doc:  "packet/frame/datagram discard paths must touch a drop counter, a drop-ish stats field, or a Record call",
	Run:  run,
}

// packetTypeNames are the final type names that mark a parameter as
// packet-carrying, matched syntactically so the analyzer needs no
// cross-package type information.
var packetTypeNames = map[string]bool{
	"Packet":   true,
	"Frame":    true,
	"Datagram": true,
}

// accountingField matches stats-field names whose increment accounts for a
// discarded packet.
var accountingField = regexp.MustCompile(`(?i)drop|expired|denied|discard|filtered|bad|refused|rejected|lost|exhaust|nosocket|noconn|nak|stale|unreach`)

// forwardCall matches function and method names that hand the packet
// onward — transmitting, answering, or delivering it — so the path is not
// a discard at all.
var forwardCall = regexp.MustCompile(`(?i)^(send|reply|forward|relay|deliver|transmit|output|emit|broadcast|respond)`)

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var ftyp *ast.FuncType
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				ftyp, body = fn.Type, fn.Body
			case *ast.FuncLit:
				ftyp, body = fn.Type, fn.Body
			default:
				return true
			}
			if body == nil || !takesPacket(ftyp) {
				return true
			}
			checkBody(pass, ftyp, body)
			return true
		})
	}
	return nil
}

// takesPacket reports whether the function's parameters include a packet,
// frame, or datagram (possibly behind a pointer).
func takesPacket(ftyp *ast.FuncType) bool {
	if ftyp.Params == nil {
		return false
	}
	for _, field := range ftyp.Params.List {
		if packetTypeNames[finalTypeName(field.Type)] {
			return true
		}
	}
	return false
}

// finalTypeName returns the last identifier of a type expression:
// "*ip.Packet" -> "Packet", "Frame" -> "Frame".
func finalTypeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return finalTypeName(t.X)
	case *ast.SelectorExpr:
		return t.Sel.Name
	case *ast.Ident:
		return t.Name
	}
	return ""
}

func checkBody(pass *framework.Pass, ftyp *ast.FuncType, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		ifStmt, ok := n.(*ast.IfStmt)
		if !ok || len(ifStmt.Body.List) == 0 {
			return true
		}
		ret, ok := ifStmt.Body.List[len(ifStmt.Body.List)-1].(*ast.ReturnStmt)
		if !ok || !isDiscardReturn(ftyp, ret) {
			return true
		}
		if blockAccounts(ifStmt.Body) {
			return true
		}
		pass.Reportf(ret.Pos(), "packet discarded without accounting: this path returns without touching a drop counter, stats field, or Record call")
		return true
	})
}

// isDiscardReturn reports whether ret ends the path without handing the
// packet or an error onward: a bare return from a func with no results, or
// a return of all-zero values.
func isDiscardReturn(ftyp *ast.FuncType, ret *ast.ReturnStmt) bool {
	if len(ret.Results) == 0 {
		// Bare return discards only in a function without results; with
		// named results the values flowing out are unknowable here.
		return ftyp.Results == nil || len(ftyp.Results.List) == 0
	}
	for _, r := range ret.Results {
		if !isZeroExpr(r) {
			return false
		}
	}
	return true
}

// isZeroExpr recognizes the zero-value spellings used in discard returns.
func isZeroExpr(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name == "nil" || v.Name == "false"
	case *ast.BasicLit:
		return (v.Kind == token.INT && v.Value == "0") || (v.Kind == token.STRING && v.Value == `""`)
	case *ast.CompositeLit:
		return len(v.Elts) == 0
	}
	return false
}

// blockAccounts reports whether the block touches drop accounting.
func blockAccounts(block *ast.BlockStmt) bool {
	found := false
	ast.Inspect(block, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if callAccounts(n) {
				found = true
				return false
			}
		case *ast.IncDecStmt:
			if n.Tok == token.INC && exprMentionsAccounting(n.X) {
				found = true
				return false
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN {
				for _, lhs := range n.Lhs {
					if exprMentionsAccounting(lhs) {
						found = true
						return false
					}
				}
			}
		}
		return true
	})
	return found
}

// callAccounts reports whether a call is an accounting touch: a Record
// call or the per-object trace wrapper over it, a forwarding call (the packet went onward, not down), or any
// method call whose selector chain mentions a drop-ish name
// (d.ctr.dropMTU.Inc(), stats.CountDrop(...)).
func callAccounts(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if fun.Sel.Name == "Record" || fun.Sel.Name == "trace" || forwardCall.MatchString(fun.Sel.Name) {
			return true
		}
		return exprMentionsAccounting(fun)
	case *ast.Ident:
		return forwardCall.MatchString(fun.Name)
	}
	return false
}

// exprMentionsAccounting walks a selector chain looking for a component
// whose name reads as drop accounting.
func exprMentionsAccounting(e ast.Expr) bool {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return accountingField.MatchString(v.Name)
		case *ast.SelectorExpr:
			if accountingField.MatchString(v.Sel.Name) {
				return true
			}
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return false
		}
	}
}
