package scenario

// Trace kinds emitted by the fault injector. Each scheduled fault is one
// root span covering [strike, heal], so disruption analyzers can use
// fault spans as attribution windows exactly like handoff roots.
const (
	KindFaultLinkFlap   = "fault.link.flap"
	KindFaultLossBurst  = "fault.loss.burst"
	KindFaultHACrash    = "fault.ha.crash"
	KindFaultAgentDelay = "fault.agent.delay"
)

// faultSpanKinds maps a fault spec kind to its span kind.
var faultSpanKinds = map[string]string{
	"link-flap":   KindFaultLinkFlap,
	"loss-burst":  KindFaultLossBurst,
	"ha-crash":    KindFaultHACrash,
	"agent-delay": KindFaultAgentDelay,
}

// FaultRootKinds reports whether a span kind is a fault root span.
func FaultRootKinds(kind string) bool {
	switch kind {
	case KindFaultLinkFlap, KindFaultLossBurst, KindFaultHACrash, KindFaultAgentDelay:
		return true
	}
	return false
}

// HandoffRootKinds reports whether a span kind bounds a whole handoff.
// Phase spans (handoff.dhcp, handoff.configure, ...) can also appear as
// roots when Prepare runs outside a switch, so it matches exact kinds, not
// the "handoff." prefix.
func HandoffRootKinds(kind string) bool {
	switch kind {
	case "handoff.cold", "handoff.hot", "handoff.home", "handoff.connect", "handoff.addrswitch":
		return true
	}
	return false
}
