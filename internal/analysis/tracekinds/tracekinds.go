// Package tracekinds enforces the trace-kind naming contract.
//
// Experiment harnesses, the handoff anomaly scan, and the disruption analyzer
// all select trace events and spans by kind prefix ("reg.", "handoff.",
// "drop.noroute"), so the kind hierarchy is an API: kinds must be
// lowercase dotted paths, and they must be named package constants — an
// inline literal at the call site is invisible to a reader auditing the
// package's vocabulary and trivially drifts from its siblings.
//
// The analyzer inspects the kind argument of the tracing entry points —
// Tracer.Record, Tracer.StartSpan, Tracer.StartChild (receiver resolved
// via type information, so same-named methods elsewhere are untouched) —
// and of the conventional per-object wrapper methods named trace and
// startSpan. A string literal in kind position is always flagged; a named
// constant is checked against ^[a-z0-9]+(\.[a-z0-9_]+)+$; a value that is
// not a compile-time constant (a parameter, a switch result) is skipped —
// its sources are themselves constants checked at their own call sites.
//
// It also guards the packet log's cost contract: the detail argument of
// PacketLog.Record must be a constant or a plain identifier. The log is on
// in every compiled world and overwrites most hops unread, so a detail
// built at the call site (x.String(), "dst="+...) is formatting nobody
// reads; such a hop passes operands through PacketLog.RecordDetail, which
// renders them only at export.
package tracekinds

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"

	"mosquitonet/internal/analysis/framework"
)

// Analyzer implements the check.
var Analyzer = &framework.Analyzer{
	Name: "tracekinds",
	Doc:  "trace event/span kinds must be lowercase dotted package constants, never inline literals; a PacketLog.Record detail must be a constant or an identifier",
	Run:  run,
}

// kindRE is the contract: at least two lowercase dotted components.
var kindRE = regexp.MustCompile(`^[a-z0-9]+(\.[a-z0-9_]+)+$`)

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if idx := kindArgIndex(pass, call); idx >= 0 && idx < len(call.Args) {
				checkKind(pass, call.Args[idx])
			}
			checkDetail(pass, call)
			return true
		})
	}
	return nil
}

// kindArgIndex returns the index of the call's kind argument, or -1 when
// the call is not a tracing entry point.
func kindArgIndex(pass *framework.Pass, call *ast.CallExpr) int {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return -1
	}
	switch sel.Sel.Name {
	case "Record":
		// Tracer.Record(actor, kind, format, ...); same-named methods are
		// excluded by the receiver type.
		if receiverIs(pass, sel.X, "Tracer") && len(call.Args) >= 2 {
			return 1
		}
	case "StartSpan":
		if receiverIs(pass, sel.X, "Tracer") && len(call.Args) >= 2 {
			return 1
		}
	case "StartChild":
		if receiverIs(pass, sel.X, "Tracer") && len(call.Args) >= 3 {
			return 2
		}
	case "trace", "startSpan":
		// The conventional wrappers (MobileHost.trace, Host.startSpan, ...)
		// take the kind first. Guard against package-qualified selectors —
		// there is no function trace.trace, but be explicit anyway.
		if !isPackageQualifier(pass, sel.X) && len(call.Args) >= 1 {
			return 0
		}
	}
	return -1
}

// receiverIs reports whether the expression's type is the named type
// (trace.Tracer, metrics.PacketLog), possibly through a pointer. Missing
// type information reports false: quiet beats noisy on partial packages.
func receiverIs(pass *framework.Pass, e ast.Expr, name string) bool {
	if pass.TypesInfo == nil {
		return false
	}
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == name
}

// isPackageQualifier reports whether e is a package name (so sel is a
// qualified identifier, not a method call).
func isPackageQualifier(pass *framework.Pass, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok || pass.TypesInfo == nil {
		return false
	}
	_, isPkg := pass.TypesInfo.Uses[id].(*types.PkgName)
	return isPkg
}

// checkKind flags literal kinds and malformed constant kinds.
func checkKind(pass *framework.Pass, arg ast.Expr) {
	if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
		pass.Reportf(arg.Pos(), "inline kind literal %s; trace kinds must be named package constants", lit.Value)
		return
	}
	if pass.TypesInfo == nil {
		return
	}
	tv, ok := pass.TypesInfo.Types[arg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return // not a compile-time constant: checked where it was built
	}
	if s := constant.StringVal(tv.Value); !kindRE.MatchString(s) {
		pass.Reportf(arg.Pos(), "kind constant %q is not a lowercase dotted path (want e.g. \"reg.attempt\")", s)
	}
}

// checkDetail flags a PacketLog.Record(pkt, node, point, detail) call whose
// detail is anything but a constant or a plain identifier.
func checkDetail(pass *framework.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Record" || len(call.Args) != 4 || !receiverIs(pass, sel.X, "PacketLog") {
		return
	}
	detail := call.Args[3]
	if _, ok := detail.(*ast.Ident); ok {
		return
	}
	if tv, ok := pass.TypesInfo.Types[detail]; ok && tv.Value != nil {
		return
	}
	pass.Reportf(detail.Pos(), "packet-log detail must be a constant or a plain identifier; pass operands through RecordDetail so the text is rendered only at export")
}
