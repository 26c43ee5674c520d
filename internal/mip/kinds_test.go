package mip

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strconv"
	"testing"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/trace"
)

// renderCases is the oracle for the typed events: for every flat event kind,
// the format string and arguments its call site handed Tracer.Record before
// events were typed, beside the operands it records now. Edge operands ride
// along: the zero address, a first try against a retry with the
// simultaneous suffix, a deregistration, a nil error, an unknown reply code.
var renderCases = func() []struct {
	kind   string
	ops    trace.Operands
	format string
	args   []any
} {
	a, b, zero := ip.MustParseAddr("36.135.0.7"), ip.MustParseAddr("36.8.0.99"), ip.Addr{}
	boom := errors.New("mip: registration timed out")
	type c = struct {
		kind   string
		ops    trace.Operands
		format string
		args   []any
	}
	return []c{
		{kHomeAttachStart, trace.Operands{S: "eth0"}, "iface=%s", []any{"eth0"}},
		{kHomeAttachDone, trace.Operands{A: a}, "addr=%v", []any{a}},
		{kBringupStart, trace.Operands{S: "strip0"}, "iface=%s", []any{"strip0"}},
		{kBringupDone, trace.Operands{S: "strip0"}, "iface=%s", []any{"strip0"}},
		{kConfigureDone, trace.Operands{S: "eth0", A: b}, "iface=%s addr=%v", []any{"eth0", b}},
		{kConfigureDone, trace.Operands{S: "eth0"}, "iface=%s addr=%v", []any{"eth0", zero}},
		{kRouteStaged, trace.Operands{S: "eth0"}, "iface=%s", []any{"eth0"}},
		{kRouteSwitched, trace.Operands{S: "eth0"}, "iface=%s", []any{"eth0"}},
		{kDHCPStart, trace.Operands{S: "eth1"}, "iface=%s", []any{"eth1"}},
		{kDHCPDone, trace.Operands{S: "eth1", A: b}, "iface=%s addr=%v", []any{"eth1", b}},
		{kAddrSwitchStart, trace.Operands{A: a, B: b}, "old=%v new=%v", []any{a, b}},
		{kAddrSwitchStart, trace.Operands{B: b}, "old=%v new=%v", []any{zero, b}},
		{kAddrSwitchConfig, trace.Operands{A: b}, "addr=%v", []any{b}},
		{kAddrSwitchRoute, trace.Operands{}, "", nil},
		{kColdStart, trace.Operands{S: "<none>", T: "eth0"}, "from=%s to=%s", []any{"<none>", "eth0"}},
		{kColdDone, trace.Operands{S: errText(nil)}, "err=%v", []any{error(nil)}},
		{kColdDone, trace.Operands{S: errText(boom)}, "err=%v", []any{boom}},
		{kHotStart, trace.Operands{S: "eth0", T: "strip0"}, "from=%s to=%s", []any{"eth0", "strip0"}},
		{kHotDone, trace.Operands{S: errText(fmt.Errorf("%w: %s", ErrRegistrationDenied, "denied"))}, "err=%v",
			[]any{fmt.Errorf("%w: %s", ErrRegistrationDenied, "denied")}},
		{kIfaceDown, trace.Operands{S: "eth0"}, "iface=%s", []any{"eth0"}},
		{kRegTimeout, trace.Operands{N: 1<<63 + 5}, "id=%d", []any{uint64(1<<63 + 5)}},
		{kRegRequestSent, trace.Operands{A: b, N: 77, I: 1}, "careof=%v id=%d try=%d%s", []any{b, uint64(77), int32(1), ""}},
		{kRegRequestSent, trace.Operands{A: b, N: 78, I: 3, T: " simultaneous=true"}, "careof=%v id=%d try=%d%s",
			[]any{b, uint64(78), int32(3), " simultaneous=true"}},
		{kRegDeregSent, trace.Operands{A: a, N: 79, I: 1}, "careof=%v id=%d try=%d%s", []any{a, uint64(79), int32(1), ""}},
		{kRegReplyReceived, trace.Operands{I: CodeAccepted, J: 60, N: 77}, "%s lifetime=%ds id=%d",
			[]any{CodeString(CodeAccepted), uint16(60), uint64(77)}},
		{kRegReplyReceived, trace.Operands{I: 200, N: 77}, "%s lifetime=%ds id=%d", []any{CodeString(200), uint16(0), uint64(77)}},
		{kRegRenew, trace.Operands{S: "via-fa", A: a}, "via-fa=%v", []any{a}},
		{kRegRenew, trace.Operands{S: "careof", A: b}, "careof=%v", []any{b}},
		{kRegRequestReceived, trace.Operands{A: a, B: b, I: 65535, N: 80}, "home=%v careof=%v lifetime=%ds id=%d",
			[]any{a, b, uint16(65535), uint64(80)}},
		{kRegRequestReceived, trace.Operands{A: a, N: 81}, "home=%v careof=%v lifetime=%ds id=%d",
			[]any{a, zero, uint16(0), uint64(81)}},
		{kRegReplySent, trace.Operands{I: CodeDeniedBadID, J: 0, N: 80}, "%s lifetime=%ds id=%d",
			[]any{CodeString(CodeDeniedBadID), uint16(0), uint64(80)}},
		{kBindingExpired, trace.Operands{A: a}, "home=%v", []any{a}},
		{kBindingInstalled, trace.Operands{A: a, B: b}, "home=%v careof=%v", []any{a, b}},
		{kBindingRemoved, trace.Operands{A: a}, "home=%v", []any{a}},
		{kProbeStart, trace.Operands{A: b}, "ch=%v", []any{b}},
		{kProbeDone, trace.Operands{A: b, S: "true"}, "ch=%v ok=%v", []any{b, true}},
		{kProbeDone, trace.Operands{A: b, S: "false"}, "ch=%v ok=%v", []any{b, false}},
		{kFAStart, trace.Operands{S: "eth1", A: b}, "iface=%s fa=%v", []any{"eth1", b}},
		{kFARelayRequest, trace.Operands{A: a, N: 82}, "home=%v id=%d", []any{a, uint64(82)}},
		{kFARelayReply, trace.Operands{A: a, I: CodeDeniedBadRequest}, "home=%v %s", []any{a, CodeString(CodeDeniedBadRequest)}},
		{kFABuffering, trace.Operands{A: a}, "home=%v", []any{a}},
		{kFAForwarding, trace.Operands{A: a, B: b, I: 64}, "home=%v to=%v buffered=%d", []any{a, b, 64}},
		{kPFANotify, trace.Operands{A: b, B: a}, "fa=%v newCareOf=%v", []any{b, a}},
		{kPFADeparting, trace.Operands{A: b}, "fa=%v", []any{b}},
	}
}()

// TestTypedEventsRenderAsSprintfDid pins every kind's renderer to the text
// its call site used to format eagerly: the Figure 7 timeline and the bench/
// exports are made of these strings.
func TestTypedEventsRenderAsSprintfDid(t *testing.T) {
	for _, c := range renderCases {
		want := fmt.Sprintf(c.format, c.args...)
		if got := renderDetail(c.kind, c.ops); got != want {
			t.Errorf("%s %+v renders %q, the call site formatted %q", c.kind, c.ops, got, want)
		}
	}
	// The same through the store: a typed event reads back, and exports, as
	// the eager one.
	loop := sim.New(1)
	typed, eager := trace.New(loop), trace.New(loop)
	for _, c := range renderCases {
		typed.RecordOps("mh", c.kind, renderDetail, c.ops)
		eager.Record("mh", c.kind, c.format, c.args...)
	}
	if !reflect.DeepEqual(typed.Events(), eager.Events()) {
		t.Errorf("typed store reads back\n%v\nthe eager one\n%v", typed.Events(), eager.Events())
	}
	var tj, ej bytes.Buffer
	if typed.WriteJSONL(&tj) != nil || eager.WriteJSONL(&ej) != nil || !bytes.Equal(tj.Bytes(), ej.Bytes()) {
		t.Errorf("JSONL exports differ:\n%s\n%s", tj.Bytes(), ej.Bytes())
	}
}

// TestEveryKindHasARenderer reads kinds.go: every constant of the flat-event
// block must be a case of renderDetail's switch and a row of the oracle
// table above, so a kind added without its text fails here, not at export.
func TestEveryKindHasARenderer(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "kinds.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	values := map[string]string{} // the first const block: flat event kinds
	cased := map[string]bool{}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.GenDecl:
			if d.Tok != token.CONST || len(values) > 0 {
				continue
			}
			for _, spec := range d.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					v, err := strconv.Unquote(vs.Values[i].(*ast.BasicLit).Value)
					if err != nil {
						t.Fatal(err)
					}
					values[name.Name] = v
				}
			}
		case *ast.FuncDecl:
			if d.Name.Name != "renderDetail" {
				continue
			}
			ast.Inspect(d.Body, func(n ast.Node) bool {
				if cc, ok := n.(*ast.CaseClause); ok {
					for _, e := range cc.List {
						if id, ok := e.(*ast.Ident); ok {
							cased[id.Name] = true
						}
					}
				}
				return true
			})
		}
	}
	if len(values) < 30 || len(cased) == 0 {
		t.Fatalf("read %d kinds and %d cases from kinds.go; the file moved under this test", len(values), len(cased))
	}
	tabled := map[string]bool{}
	for _, c := range renderCases {
		tabled[c.kind] = true
	}
	for name, kind := range values {
		if !cased[name] {
			t.Errorf("kind %s has no case in renderDetail: a typed event of it would panic at export", name)
		}
		if !tabled[kind] {
			t.Errorf("kind %s (%q) has no row in renderCases: its text is pinned to nothing", name, kind)
		}
	}
}
