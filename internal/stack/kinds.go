package stack

// Span kinds recorded by the datapath. All kinds are lowercase dotted
// constants (enforced tree-wide by the tracekinds analyzer).
//
// Drop spans are instants: every stack drop records one, so a reader of the
// trace can count drops by reason (the handoff observatory counts bursts of
// "drop.noroute") without the stack knowing who is watching.
const (
	kSpanDropFilter    = "drop.filter"
	kSpanDropNoRoute   = "drop.noroute"
	kSpanDropTTL       = "drop.ttl"
	kSpanDropBadPacket = "drop.badpacket"
	kSpanDropNotLocal  = "drop.notlocal"
	kSpanDropNoHandler = "drop.nohandler"
	kSpanDropMTU       = "drop.mtu"
)

// dropReason is why the stack discarded a packet, the one name a drop has.
// recordDrop looks it up in drops, which says what each reason selects.
type dropReason uint8

const (
	// dropFilter is a packet the arrival interface's transit filter
	// refused (Iface.SetTransitFilter).
	dropFilter dropReason = iota
	dropNoRoute
	dropTTL
	dropBadPacket
	dropNotLocal
	dropNoHandler
	dropMTU
	numDropReasons
)

// drops is the table of drop reasons: the Stats counter a drop bumps, the
// registry row that counter is exported as, and the kind of the drop's span.
// The ip.drop hop's text is the dropping site's detail, which the span also
// carries as its "reason" attribute.
var drops = [numDropReasons]struct {
	counter   func(*Stats) *uint64
	row, span string
}{
	dropFilter:    {func(s *Stats) *uint64 { return &s.DropFilter }, "stack.host.drop_filter", kSpanDropFilter},
	dropNoRoute:   {func(s *Stats) *uint64 { return &s.DropNoRoute }, "stack.host.drop_no_route", kSpanDropNoRoute},
	dropTTL:       {func(s *Stats) *uint64 { return &s.DropTTL }, "stack.host.drop_ttl", kSpanDropTTL},
	dropBadPacket: {func(s *Stats) *uint64 { return &s.DropBadPacket }, "stack.host.drop_bad_packet", kSpanDropBadPacket},
	dropNotLocal:  {func(s *Stats) *uint64 { return &s.DropNotLocal }, "stack.host.drop_not_local", kSpanDropNotLocal},
	dropNoHandler: {func(s *Stats) *uint64 { return &s.DropNoHandler }, "stack.host.drop_no_handler", kSpanDropNoHandler},
	dropMTU:       {func(s *Stats) *uint64 { return &s.DropMTU }, "stack.host.drop_mtu", kSpanDropMTU},
}
