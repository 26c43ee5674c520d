// Package tunnel implements the paper's fused VIF/IP-in-IP module: a
// virtual interface that encapsulates packets routed to it, plus the
// protocol-4 receive handler that decapsulates tunneled packets and
// re-injects them into the host's IP input path.
//
// Both mobile hosts and home agents instantiate one Endpoint. What differs
// is only the two address callbacks: a mobile host stamps its care-of
// address as the outer source and its home agent as the outer destination;
// a home agent stamps its own address and looks the outer destination up
// in its mobility binding table, per packet.
//
// The outer source is always a specific physical address, never left
// unspecified. That is the paper's loop-prevention rule: a packet emitted
// by the VIF re-enters IP output, and because its source is bound, the
// (mobility-aware) route lookup classifies it as outside the scope of
// mobile IP and never hands it back to the VIF.
package tunnel

import (
	"errors"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/metrics"
	"mosquitonet/internal/stack"
	"mosquitonet/internal/trace"
)

// kSpanRebound marks the instant the endpoint first emits with a new outer
// source — the moment a handoff's re-established tunnel actually carries
// traffic from the new care-of address.
const kSpanRebound = "tunnel.rebound"

// Stats counts tunnel activity.
type Stats struct {
	Encapsulated uint64
	Decapsulated uint64
	DropNoDst    uint64 // no tunnel destination for the inner packet
	DropNoSrc    uint64 // no usable outer source (no connectivity)
	DropBadInner uint64 // inner packet failed to parse
	DropPeer     uint64 // outer source rejected by the peer check
	DropOutput   uint64 // outer packet unroutable
}

// ErrNoTunnelDst is recorded when the destination callback declines a
// packet.
var ErrNoTunnelDst = errors.New("tunnel: no destination for packet")

// Endpoint is one host's VIF/IPIP module.
type Endpoint struct {
	host *stack.Host
	vif  *stack.Iface

	outerSrc func() (ip.Addr, bool)
	outerDst func(inner *ip.Packet) (ip.Addr, bool)

	// AllowPeer, if set, filters decapsulation by outer source address.
	// The paper implements no authentication (Section 2 defers security),
	// so the default accepts any peer.
	AllowPeer func(outer ip.Addr) bool

	stats Stats

	encapBytes, decapBytes uint64
	pktlog                 *metrics.PacketLog
	tracer                 *trace.Tracer
	lastSrc                ip.Addr // outer source of the last transmit
}

// New creates the endpoint: its virtual interface named name, whose
// transmit function encapsulates every packet routed to it, and the host's
// decapsulation slot, which it fills with its receiver. outerSrc supplies
// the physical (care-of) address for outgoing encapsulation; outerDst
// supplies the remote tunnel endpoint for a given inner packet.
//
// A host has one decapsulation slot, and the last endpoint made on it
// fills it: inbound tunneled traffic is attributed to that endpoint's VIF.
func New(host *stack.Host, name string, outerSrc func() (ip.Addr, bool), outerDst func(*ip.Packet) (ip.Addr, bool)) *Endpoint {
	e := &Endpoint{host: host, outerSrc: outerSrc, outerDst: outerDst}
	e.vif = host.AddVirtualIface(name, e.transmit)
	host.SetDecapsulator(e.receive)
	e.pktlog = metrics.PacketsFor(host.Loop())
	e.tracer = trace.For(host.Loop())
	// The loop's one endpoint collector publishes the counters; a nil
	// registry (telemetry disabled) makes Add a no-op, so the endpoint never
	// gates construction on metrics.
	metrics.Add(metrics.For(host.Loop()), e, (*Endpoint).collect)
	return e
}

// collect emits the endpoint's rows.
func (e *Endpoint) collect(c *metrics.Collection) {
	lbls := []metrics.Label{metrics.L("host", e.host.Name()), metrics.L("vif", e.vif.Name())}
	c.Counter("tunnel.endpoint.encap_bytes", e.encapBytes, lbls...)
	c.Counter("tunnel.endpoint.decap_bytes", e.decapBytes, lbls...)
	c.Counter("tunnel.endpoint.encapsulated", e.stats.Encapsulated, lbls...)
	c.Counter("tunnel.endpoint.decapsulated", e.stats.Decapsulated, lbls...)
	c.Counter("tunnel.endpoint.drop_no_dst", e.stats.DropNoDst, lbls...)
	c.Counter("tunnel.endpoint.drop_no_src", e.stats.DropNoSrc, lbls...)
	c.Counter("tunnel.endpoint.drop_bad_inner", e.stats.DropBadInner, lbls...)
	c.Counter("tunnel.endpoint.drop_peer", e.stats.DropPeer, lbls...)
	c.Counter("tunnel.endpoint.drop_output", e.stats.DropOutput, lbls...)
}

// Iface returns the endpoint's virtual interface, for use in routes and
// route-lookup decisions.
func (e *Endpoint) Iface() *stack.Iface { return e.vif }

// Stats returns a snapshot of the counters.
func (e *Endpoint) Stats() Stats { return e.stats }

// transmit is the VIF's transmit function: encapsulate and re-enter IP
// output. It takes inner, which dies here on every path: dropped, or
// marshaled into the outer packet that goes on in its place.
//
//mnet:ownership takes inner
func (e *Endpoint) transmit(inner *ip.Packet, _ ip.Addr) {
	name := e.host.Name()
	dst, ok := e.outerDst(inner)
	if !ok {
		e.stats.DropNoDst++
		e.pktlog.Record(inner.Trace, name, "tunnel.drop", "no tunnel destination")
		inner.Release()
		return
	}
	src, ok := e.outerSrc()
	if !ok {
		e.stats.DropNoSrc++
		e.pktlog.Record(inner.Trace, name, "tunnel.drop", "no outer source")
		inner.Release()
		return
	}
	outer, err := ip.Encapsulate(src, dst, ip.DefaultTTL, e.host.NextID(), inner)
	trace := inner.Trace // the outer's too
	inner.Release()
	if err != nil {
		e.stats.DropBadInner++
		e.pktlog.Record(trace, name, "tunnel.drop", "encapsulation failed")
		return
	}
	e.stats.Encapsulated++
	e.encapBytes += uint64(outer.Len())
	if e.tracer != nil && src != e.lastSrc {
		if !e.lastSrc.IsUnspecified() {
			sp := e.tracer.StartSpan(name, kSpanRebound)
			sp.SetAttr("vif", e.vif.Name())
			sp.SetAttr("old", e.lastSrc.String())
			sp.SetAttr("new", src.String())
			sp.Done()
		}
		e.lastSrc = src
	}
	e.pktlog.RecordDetail(trace, name, "tunnel.encap", stack.HeaderDetail(metrics.DetailAddrPair, outer, ""))
	if err := e.host.Output(outer); err != nil {
		e.stats.DropOutput++
		e.pktlog.Record(trace, name, "tunnel.drop", "outer packet unroutable")
	}
}

// receive is the host's decapsulation slot: strip the outer header,
// validate the inner packet, and re-inject it as if it had arrived on the
// VIF. It takes outer, which dies here: rejected, or consumed by
// Decapsulate, which moves its buffer under the inner packet that goes on in
// its place.
//
//mnet:ownership takes outer
func (e *Endpoint) receive(outer *ip.Packet) {
	name := e.host.Name()
	if e.AllowPeer != nil && !e.AllowPeer(outer.Src) {
		e.stats.DropPeer++
		e.pktlog.RecordDetail(outer.Trace, name, "tunnel.drop", metrics.AddrDetail(metrics.DetailPeerRejected, outer.Src, ""))
		outer.Release()
		return
	}
	trace, outerLen := outer.Trace, outer.Len()
	inner, err := ip.Decapsulate(outer)
	if err != nil {
		e.stats.DropBadInner++
		e.pktlog.Record(trace, name, "tunnel.drop", "bad inner packet")
		return
	}
	e.stats.Decapsulated++
	e.decapBytes += uint64(outerLen)
	e.pktlog.RecordDetail(inner.Trace, name, "tunnel.decap", stack.HeaderDetail(metrics.DetailPacket, inner, ""))
	e.host.Input(e.vif, inner)
}
