package mip

import (
	"fmt"

	"mosquitonet/internal/trace"
)

// Trace kinds recorded by the mobility layer. All kinds are lowercase
// dotted constants (enforced tree-wide by the tracekinds analyzer);
// experiment harnesses select them by prefix ("reg.", "handoff."), so the
// hierarchy is part of the contract.
//
// Flat events (Tracer.Record) mark instants for the Figure 7 timeline;
// span kinds (Tracer.StartSpan) bound the same operations as intervals for
// the disruption observatory. An operation's span kind is the shared
// prefix of its start/done event kinds (e.g. span "handoff.cold" brackets
// events "handoff.cold.start" and "handoff.cold.done").
const (
	// Mobile-host lifecycle events.
	kHomeAttachStart  = "home.attach.start"
	kHomeAttachDone   = "home.attach.done"
	kBringupStart     = "handoff.bringup.start"
	kBringupDone      = "handoff.bringup.done"
	kConfigureDone    = "handoff.configure.done"
	kRouteStaged      = "handoff.route.staged"
	kRouteSwitched    = "handoff.route.switched"
	kDHCPStart        = "handoff.dhcp.start"
	kDHCPDone         = "handoff.dhcp.done"
	kAddrSwitchStart  = "addrswitch.start"
	kAddrSwitchConfig = "addrswitch.configure.done"
	kAddrSwitchRoute  = "addrswitch.route.done"
	kColdStart        = "handoff.cold.start"
	kColdDone         = "handoff.cold.done"
	kHotStart         = "handoff.hot.start"
	kHotDone          = "handoff.hot.done"
	kIfaceDown        = "iface.down"

	// Registration events (both ends).
	kRegTimeout         = "reg.timeout"
	kRegRequestSent     = "reg.request.sent"
	kRegDeregSent       = "reg.dereg.sent"
	kRegReplyReceived   = "reg.reply.received"
	kRegRenew           = "reg.renew"
	kRegRequestReceived = "reg.request.received"
	kRegReplySent       = "reg.reply.sent"
	kBindingExpired     = "binding.expired"
	kBindingInstalled   = "binding.installed"
	kBindingRemoved     = "binding.removed"

	// Policy probing.
	kProbeStart = "policy.probe.start"
	kProbeDone  = "policy.probe.done"

	// Foreign-agent extension.
	kFAStart        = "handoff.fa.start"
	kFARelayRequest = "fa.relay.request"
	kFARelayReply   = "fa.relay.reply"
	kFABuffering    = "fa.buffering"
	kFAForwarding   = "fa.forwarding"
	kPFANotify      = "pfa.notify"
	kPFADeparting   = "pfa.departing"
)

// renderDetail is the mobility layer's trace.Renderer: the detail text of
// each flat event kind above, from the operands its call site recorded. The
// texts are the Figure 7 timeline's and the bench/ exports', pinned by
// TestTypedEventsRenderAsSprintfDid; TestEveryKindHasARenderer keeps the
// switch complete.
func renderDetail(kind string, o trace.Operands) string {
	switch kind {
	case kHomeAttachStart, kBringupStart, kBringupDone, kRouteStaged, kRouteSwitched, kDHCPStart, kIfaceDown:
		return "iface=" + o.S
	case kHomeAttachDone, kAddrSwitchConfig:
		return fmt.Sprintf("addr=%v", o.A)
	case kConfigureDone, kDHCPDone:
		return fmt.Sprintf("iface=%s addr=%v", o.S, o.A)
	case kAddrSwitchStart:
		return fmt.Sprintf("old=%v new=%v", o.A, o.B)
	case kAddrSwitchRoute:
		return ""
	case kColdStart, kHotStart:
		return fmt.Sprintf("from=%s to=%s", o.S, o.T)
	case kColdDone, kHotDone:
		return "err=" + o.S // errText
	case kRegTimeout:
		return fmt.Sprintf("id=%d", o.N)
	case kRegRequestSent, kRegDeregSent: // T: " simultaneous=true" or nothing
		return fmt.Sprintf("careof=%v id=%d try=%d%s", o.A, o.N, o.I, o.T)
	case kRegReplyReceived, kRegReplySent:
		return fmt.Sprintf("%s lifetime=%ds id=%d", CodeString(uint8(o.I)), o.J, o.N)
	case kRegRenew: // S: which address renews, "careof" or "via-fa"
		return fmt.Sprintf("%s=%v", o.S, o.A)
	case kRegRequestReceived:
		return fmt.Sprintf("home=%v careof=%v lifetime=%ds id=%d", o.A, o.B, o.I, o.N)
	case kBindingExpired, kBindingRemoved, kFABuffering:
		return fmt.Sprintf("home=%v", o.A)
	case kBindingInstalled:
		return fmt.Sprintf("home=%v careof=%v", o.A, o.B)
	case kProbeStart:
		return fmt.Sprintf("ch=%v", o.A)
	case kProbeDone:
		return fmt.Sprintf("ch=%v ok=%s", o.A, o.S)
	case kFAStart:
		return fmt.Sprintf("iface=%s fa=%v", o.S, o.A)
	case kFARelayRequest:
		return fmt.Sprintf("home=%v id=%d", o.A, o.N)
	case kFARelayReply:
		return fmt.Sprintf("home=%v %s", o.A, CodeString(uint8(o.I)))
	case kFAForwarding:
		return fmt.Sprintf("home=%v to=%v buffered=%d", o.A, o.B, o.I)
	case kPFANotify:
		return fmt.Sprintf("fa=%v newCareOf=%v", o.A, o.B)
	case kPFADeparting:
		return fmt.Sprintf("fa=%v", o.A)
	}
	panic("mip: trace kind " + kind + " has no renderer")
}

// errText is what %v prints for err, as an operand.
func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// Span kinds. Roots ("handoff.cold", "handoff.hot", "handoff.addrswitch",
// "handoff.home", "handoff.connect") bound whole handoffs — the windows
// the disruption analyzer correlates flow probes against; the rest are
// their phase children.
const (
	kSpanHandoffCold = "handoff.cold"
	kSpanHandoffHot  = "handoff.hot"
	kSpanHomeAttach  = "handoff.home"
	kSpanConnect     = "handoff.connect"
	kSpanAddrSwitch  = "handoff.addrswitch"
	kSpanBringup     = "handoff.bringup"
	kSpanDHCP        = "handoff.dhcp"
	kSpanConfigure   = "handoff.configure"
	kSpanRoute       = "handoff.route"
	kSpanRegAttempt  = "reg.attempt"
	kSpanRegServe    = "reg.serve"
	kSpanTunnelUp    = "tunnel.established"
)
