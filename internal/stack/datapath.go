package stack

import (
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/metrics"
)

// The datapath, in the order a packet meets it:
//
//	Input ── classify ──▶ deliver: reassemble ─▶ protocol 4? decapsulation slot
//	   │                                     └─▶ protocol handler (ICMP built in)
//	   └────────────────▶ forward: TTL ─▶ route ─▶ transit check ─▶ MTU ─▶ redirect
//	Output: route slot ─▶ OutputRouted ─┐                          │
//	OutputVia ──────────────────────────┴──▶ postroute hop ◀───────┘
//	                                          └─▶ Iface.send: the wire, or a VIF's TransmitFunc
//
// Each arrow into deliver, forward and the postroute hop is a hop record
// (see scheduleHop) carrying the packet across the host's processing delay.
// The route slot is SetRouteLookup and the decapsulation slot
// SetDecapsulator: with a virtual interface's transmit function, the seams
// the paper's mobility support needs. The transit check is the paper's
// visited-network filter, switched per interface by Iface.SetTransitFilter.

// SetDecapsulator fills the host's IP-in-IP receive slot, the paper's
// decapsulation module: fn takes every locally delivered protocol-4
// packet, which the stack has already counted as delivered. nil empties the
// slot, and protocol 4 is then a protocol without a handler. The slot is
// read per packet, so a change takes effect on the next one.
func (h *Host) SetDecapsulator(fn func(pkt *ip.Packet)) {
	h.decap = fn
}

// SetRouteLookup fills the host's one route-lookup slot: the paper's
// single kernel modification, an overridden ip_rt_route(). fn answers
// every route query; one that declines a lookup calls DefaultRouteLookup
// itself. nil restores the stock lookup. The slot is read per query, so a
// change takes effect on the next one.
func (h *Host) SetRouteLookup(fn func(dst, boundSrc ip.Addr) (RouteDecision, error)) {
	h.routeOverride = fn
}

// RouteLookup is ip_rt_route(): dst is the packet's destination, boundSrc
// the source address the sender bound, or the unspecified address if it
// left the choice to the stack. The route slot answers it: the override if
// one is set, else DefaultRouteLookup.
func (h *Host) RouteLookup(dst, boundSrc ip.Addr) (RouteDecision, error) {
	if h.routeOverride != nil {
		return h.routeOverride(dst, boundSrc)
	}
	return h.DefaultRouteLookup(dst, boundSrc)
}

// Input accepts a packet arriving on ifc. The accept/forward/drop decision
// is made at arrival time — the interrupt path checks the destination
// against the host's current addresses immediately — while the input
// processing delay is charged before the packet reaches protocol handlers
// or the forwarding engine. Decapsulating modules reuse Input to re-inject
// inner packets. Input takes pkt, as Output does.
//
//mnet:ownership takes pkt
func (h *Host) Input(ifc *Iface, pkt *ip.Packet) {
	if pkt.Trace == 0 {
		pkt.Trace = h.loop.NextSerial()
	}
	h.stats.Received++
	switch {
	case h.IsLocalAddr(pkt.Dst):
		h.scheduleHop(h.cfg.InputDelay, hopDeliver, ifc, pkt, ip.Addr{})
	case h.forwarding && !pkt.Dst.IsMulticast():
		// Multicast is link-scoped here: unicast routers do not forward
		// group traffic.
		h.scheduleHop(h.cfg.InputDelay, hopForward, ifc, pkt, ip.Addr{})
	default:
		h.drop(dropNotLocal, metrics.AddrDetail(metrics.DetailNotLocal, pkt.Dst, ""), pkt)
	}
}

// deliver hands a whole datagram to deliverDatagram and a fragment to the
// reassembly buffer, which keeps it until it completes a datagram.
//
//mnet:ownership takes pkt
func (h *Host) deliver(ifc *Iface, pkt *ip.Packet) {
	if !pkt.IsFragment() {
		h.deliverDatagram(ifc, pkt)
		return
	}
	full, done := h.Reassembler().Add(pkt)
	if !done {
		h.armSweep()
		//lint:allow dropaccounting parked in the reassembly buffer, which owns it now; sweep expiry is accounted there
		return
	}
	h.deliverDatagram(ifc, full)
}

// deliverDatagram hands protocol 4 to the decapsulation slot and anything
// else to its protocol handler, with ICMP built in as the fallback for its
// protocol number. A delivered packet dies here, when the handler it was
// lent to returns.
//
//mnet:ownership takes pkt
func (h *Host) deliverDatagram(ifc *Iface, pkt *ip.Packet) {
	if pkt.Protocol == ip.ProtoIPIP && h.decap != nil {
		h.stats.Delivered++
		h.pktlog.Record(pkt.Trace, h.name, "ip.deliver", "ipip")
		h.decap(pkt)
		return
	}
	handler, ok := h.handler(pkt.Protocol)
	switch {
	case ok:
		h.stats.Delivered++
		h.pktlog.RecordDetail(pkt.Trace, h.name, "ip.deliver", metrics.ProtoDetail(metrics.DetailProto, uint8(pkt.Protocol)))
		handler(ifc, pkt)
	case pkt.Protocol == ip.ProtoICMP:
		if h.ICMP().input(pkt) != nil {
			h.drop(dropBadPacket, metrics.Text("bad packet"), pkt)
			return
		}
		h.stats.Delivered++
		h.pktlog.Record(pkt.Trace, h.name, "ip.deliver", "icmp")
	default:
		h.drop(dropNoHandler, metrics.ProtoDetail(metrics.DetailNoHandler, uint8(pkt.Protocol)), pkt)
		return
	}
	pkt.Release()
}

// forward runs the transit steps in order — TTL, route, transit check, MTU,
// redirect — and schedules a packet that passes them all, its TTL
// decremented, past the forwarding delay to its egress. The header is the
// owner's to rewrite, and between this host's receiver and its wire the
// owner is this host; only the payload is immutable.
//
//mnet:ownership takes pkt
func (h *Host) forward(in *Iface, pkt *ip.Packet) {
	if pkt.TTL <= 1 {
		// The traceroute-visible time-exceeded error.
		h.dropICMP(dropTTL, metrics.Text("ttl expired"), ip.ICMPTimeExceeded, 0, pkt)
		return
	}
	r, ok := h.routes.Lookup(pkt.Dst)
	if !ok {
		h.dropICMP(dropNoRoute, noRouteTo(pkt.Dst), ip.ICMPDestUnreach, ip.CodeNetUnreach, pkt)
		return
	}
	out, nextHop := r.Iface, r.Gateway
	if nextHop.IsUnspecified() {
		nextHop = pkt.Dst
	}
	if in.transitFilter && !in.prefix.Contains(pkt.Src) {
		h.drop(dropFilter, metrics.Text("filtered"), pkt)
		return
	}
	if mtu := out.MTU(); mtu > 0 && pkt.Len() > mtu && pkt.DontFrag {
		// The error path-MTU discovery depends on.
		h.dropICMP(dropMTU, metrics.Text("df packet exceeds mtu"), ip.ICMPDestUnreach, ip.CodeFragNeeded, pkt)
		return
	}
	// A packet leaving the way it came tells an on-subnet sender about the
	// better first hop, and is still forwarded (RFC 792). Only a device has
	// a link neighbour to redirect: a VIF's zero prefix contains every
	// source.
	if out == in && !in.IsVirtual() && !in.pointToPoint && in.prefix.Contains(pkt.Src) {
		h.ICMP().sendRedirect(pkt, nextHop)
	}
	pkt.TTL--
	h.stats.Forwarded++
	h.pktlog.RecordDetail(pkt.Trace, h.name, "ip.forward", metrics.AddrDetail(metrics.DetailNextHop, nextHop, out.name))
	h.scheduleHop(h.cfg.ForwardDelay, hopPostroute, out, pkt, nextHop)
}

func noRouteTo(dst ip.Addr) metrics.Detail {
	return metrics.AddrDetail(metrics.DetailNoRoute, dst, "")
}

// Output routes and transmits a locally originated packet: one route
// lookup, then OutputRouted. A zero TTL is replaced with the host default;
// an unspecified source is filled from the route decision, exactly as the
// paper describes: packets with a bound source are outside the scope of
// mobile IP, packets without one get whatever source the (possibly
// overridden) lookup chooses. An unroutable packet is dropped, with an ICMP
// Destination Unreachable back to a bound source, rather than vanishing
// silently.
//
// Output takes pkt, error or not: the stack owns it from here to the wire,
// the handler or the drop, and releases it there. The caller reads nothing
// of it afterwards.
//
//mnet:ownership takes pkt
func (h *Host) Output(pkt *ip.Packet) error {
	dec, err := h.RouteLookup(pkt.Dst, pkt.Src)
	if err != nil {
		h.stamp(pkt)
		h.dropICMP(dropNoRoute, noRouteTo(pkt.Dst), ip.ICMPDestUnreach, ip.CodeNetUnreach, pkt)
		return err
	}
	h.OutputRouted(pkt, dec)
	return nil
}

// OutputRouted transmits a locally originated packet along a route
// decision its sender already holds: the transport, whose one call into
// RouteLookup both picked the pseudo-header source and routed the datagram.
// It is the send step every local packet takes — stamp, fill an
// unspecified source from dec, emit — and, like Output, it takes pkt.
//
//mnet:ownership takes pkt
func (h *Host) OutputRouted(pkt *ip.Packet, dec RouteDecision) {
	h.stamp(pkt)
	if pkt.Src.IsUnspecified() {
		pkt.Src = dec.Src
	}
	h.emit(dec.Iface, pkt, dec.NextHop)
}

// OutputVia transmits pkt on a specific interface toward nextHop,
// bypassing route lookup. DHCP clients (which have no routable address
// yet) and other link-scoped senders use it. Like Output it takes pkt.
//
//mnet:ownership takes pkt
func (h *Host) OutputVia(ifc *Iface, pkt *ip.Packet, nextHop ip.Addr) error {
	h.OutputRouted(pkt, RouteDecision{Iface: ifc, NextHop: nextHop})
	return nil
}

// stamp fills what a locally originated packet may leave unset: the TTL,
// the identification and the trace ID.
func (h *Host) stamp(pkt *ip.Packet) {
	if pkt.TTL == 0 {
		pkt.TTL = ip.DefaultTTL
	}
	if pkt.ID == 0 {
		pkt.ID = h.NextID()
	}
	if pkt.Trace == 0 {
		pkt.Trace = h.loop.NextSerial()
	}
}

// emit counts a routed local packet sent and schedules it past the output
// processing delay to its egress.
//
//mnet:ownership takes pkt
func (h *Host) emit(ifc *Iface, pkt *ip.Packet, nextHop ip.Addr) {
	h.stats.Sent++
	h.pktlog.RecordDetail(pkt.Trace, h.name, "ip.output", HeaderDetail(metrics.DetailPacketVia, pkt, ifc.name))
	h.scheduleHop(h.cfg.OutputDelay, hopPostroute, ifc, pkt, nextHop)
}

// drop records pkt's drop and releases it. Every stack drop of a packet
// goes through drop or dropICMP; the packet is their last argument, so the
// detail is built from it before they take it.
//
//mnet:ownership takes pkt
func (h *Host) drop(why dropReason, detail metrics.Detail, pkt *ip.Packet) {
	h.recordDrop(pkt.Trace, why, detail)
	pkt.Release()
}

// dropICMP is drop plus an ICMP error (with the usual RFC 792
// suppressions) sent back to pkt's source before pkt is released.
//
//mnet:ownership takes pkt
func (h *Host) dropICMP(why dropReason, detail metrics.Detail, typ ip.ICMPType, code uint8, pkt *ip.Packet) {
	h.recordDrop(pkt.Trace, why, detail)
	h.ICMP().sendError(typ, code, pkt)
	pkt.Release()
}

// recordDrop is the one place a stack drop is recorded: why selects the
// Stats counter and the drop span's kind (see drops), detail is the ip.drop
// hop's text and the span's reason. drop and dropICMP call it; so do the two
// drops that do not own a packet to release — a frame that does not parse,
// and a DF packet its egress cannot fragment. Whether an ICMP error goes
// back is the dropping site's choice, not the reason's.
func (h *Host) recordDrop(trace uint64, why dropReason, detail metrics.Detail) {
	d := drops[why]
	*d.counter(&h.stats)++
	h.pktlog.RecordDetail(trace, h.name, "ip.drop", detail)
	if t := h.spanTracer(); t != nil {
		sp := t.StartChild(nil, h.name, d.span)
		if reason := detail.String(); reason != "" {
			sp.SetAttr("reason", reason)
		}
		sp.Done()
	}
}

// HeaderDetail packs pkt's header as the operands of a packet-log detail
// of the given kind; via is the egress interface's name where the kind
// renders one.
func HeaderDetail(kind metrics.DetailKind, pkt *ip.Packet, via string) metrics.Detail {
	return metrics.PacketDetail(kind, uint8(pkt.Protocol), pkt.Src, pkt.Dst, pkt.TTL, pkt.Len(), via)
}

// hopKind names the step a hop record continues into.
type hopKind uint8

const (
	hopDeliver hopKind = iota
	hopForward
	hopPostroute
)

// hop is the continuation of a packet across one of a host's processing
// delays: Input into deliver or forward, Output or forward into the
// postroute hop. Records come from the loop's free list (Host.hops) and fire
// is bound once, when the record is made, so scheduling a hop allocates
// nothing and the loop keeps as many records as hops were ever in flight at
// once. A hop waits in the loop's monotone queue for its delay, not in the
// timer heap: the delay is fixed with the host's Config, so hops pushed onto
// one queue never go back in time.
type hop struct {
	host    *Host
	iface   *Iface // arrival interface, or the egress for hopPostroute
	pkt     *ip.Packet
	nextHop ip.Addr
	kind    hopKind
	fire    func() // r.run
}

// scheduleHop continues pkt into the kind step after delay d. The hop
// record owns the packet across the delay.
//
//mnet:ownership takes pkt
func (h *Host) scheduleHop(d time.Duration, kind hopKind, ifc *Iface, pkt *ip.Packet, nextHop ip.Addr) {
	r := h.hops.Take()
	if r == nil {
		r = new(hop)
		r.fire = r.run
	}
	r.host, r.kind, r.iface, r.pkt, r.nextHop = h, kind, ifc, pkt, nextHop
	h.loop.DelayQueue(d).Schedule(r.fire)
}

// run dispatches the hop. The record drops its host and packet and goes
// back on the free list first, so the step it enters can schedule its own
// hop into it. The postroute hop is where every packet leaving the host —
// locally originated or forwarded — meets its interface.
func (r *hop) run() {
	h, kind, ifc, pkt, nextHop := r.host, r.kind, r.iface, r.pkt, r.nextHop
	r.host, r.iface, r.pkt = nil, nil, nil
	h.hops.Put(r)
	switch kind {
	case hopDeliver:
		h.deliver(ifc, pkt)
	case hopForward:
		h.forward(ifc, pkt)
	case hopPostroute:
		ifc.send(pkt, nextHop)
	}
}
