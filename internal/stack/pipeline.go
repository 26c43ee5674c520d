package stack

import (
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/metrics"
	"mosquitonet/internal/pipeline"
)

// Built-in hook priorities. The datapath's own steps register at these
// values; external hooks slot in anywhere between PriFirst and PriLast,
// and the (priority, name) sort keeps traversal deterministic no matter
// when or where a hook was registered.
const (
	// PriFirst runs before every built-in step of a chain.
	PriFirst = -1000
	// PriLast is the terminal built-ins' priority: PREROUTING "classify",
	// INPUT "demux", OUTPUT "unreachable". Hooks meaning to intercept must
	// register below it.
	PriLast = 1000

	PriReassemble      = -300 // INPUT: fragment reassembly
	PriForwardTTL      = -300 // FORWARD: TTL check
	PriForwardRoute    = -200 // FORWARD: route-table lookup
	PriDecap           = -100 // INPUT: decapsulation hooks (the tunnel VIF)
	PriForwardFilter   = 0    // FORWARD: policy filters (ctx.Drop / ctx.Reject)
	PriForwardMTU      = 100  // FORWARD: path-MTU check
	PriForwardRedirect = 200  // FORWARD: same-subnet redirect notification
)

// PacketContext is what every PREROUTING, INPUT, FORWARD, OUTPUT and
// POSTROUTING hook sees: the host, the packet, and the routing state
// accumulated so far. Hooks may rewrite Out/NextHop (steering) or Pkt
// (reassembly swaps in the full datagram); drop bookkeeping is staged on
// the context and performed once by observeVerdict after the chain run.
//
// A context is valid only until the hook returns: the stack reuses the
// record for a later chain run. A hook that schedules a callback copies
// out the fields the callback needs (as hookClassify does); one that kept
// the pointer would find it zeroed — a nil Host — or describing another
// packet.
type PacketContext struct {
	Host *Host
	In   *Iface // arrival interface; nil for locally originated packets
	Out  *Iface // chosen egress, once routed

	// Pkt is lent to the hook. A hook that returns Accept or Drop has only
	// looked at it (or, like reassembly, replaced it with a packet the
	// chain's runner now owns): the runner sends it on or releases it, and a
	// hook that wants to keep it keeps Pkt.Clone(). Returning Stolen
	// transfers it: the hook owns Pkt from then on and must release it or
	// hand it to something that takes it (Host.Input, Host.Output, a hop).
	Pkt *ip.Packet

	// NextHop and Route are valid once Routed is set: after the FORWARD
	// chain's "route" hook, and on OUTPUT/POSTROUTING contexts. (Routed
	// shares NextHop's word: see TestPacketContextSizeClass.)
	NextHop ip.Addr
	Routed  bool
	Route   Route

	// RouteErr is set on OUTPUT contexts whose route lookup failed; the
	// terminal "unreachable" hook turns it into an accounted drop.
	RouteErr error

	stage pipeline.Stage

	// Drop bookkeeping staged by drop/dropICMP, consumed by observeVerdict.
	dropDetail metrics.Detail
	dropWhy    dropReason
	icmpSend   bool
	icmpType   ip.ICMPType
	icmpCode   uint8

	free *PacketContext // next record on the host's free list
}

// acquireCtx takes a context for one chain run from the host's free list,
// making one when the list is empty. It is a list and not one scratch slot
// because runs nest: a decapsulating INPUT hook re-injects through Input, a
// protocol handler replies through Output, and observeVerdict sends a Drop's
// ICMP error through Output, each while the outer run's context is live.
// The context carries pkt for the run, so whoever ends the run (endRun, a
// hop, Iface.send) ends up with the packet.
//
//mnet:ownership takes pkt
func (h *Host) acquireCtx(stage pipeline.Stage, pkt *ip.Packet) *PacketContext {
	ctx := h.ctxFree
	if ctx == nil {
		ctx = new(PacketContext)
	} else {
		h.ctxFree, ctx.free = ctx.free, nil
	}
	ctx.Host, ctx.Pkt, ctx.stage = h, pkt, stage
	return ctx
}

// releaseCtx zeroes ctx and returns it to the free list, once
// observeVerdict has run and the caller has read what it needs. Zeroing
// means a released context pins no packet, and a hook that wrongly kept
// the pointer faults on a nil Host instead of reading another packet's
// state.
func (h *Host) releaseCtx(ctx *PacketContext) {
	*ctx = PacketContext{free: h.ctxFree}
	h.ctxFree = ctx
}

// hopKind names the chain entry point a hop record continues into.
type hopKind uint8

const (
	hopDeliver hopKind = iota
	hopForward
	hopPostroute
)

// hop is the continuation of a packet across one of the host's processing
// delays: PREROUTING into INPUT or FORWARD, OUTPUT or FORWARD into
// POSTROUTING. Records are pooled per host and fire is bound once, when the
// record is made, so scheduling a hop allocates nothing. A hop waits in
// the loop's monotone queue for its delay, not in the timer heap: the
// delay is fixed with the host's Config, so hops pushed onto one queue
// never go back in time.
type hop struct {
	host    *Host
	iface   *Iface // arrival interface, or the egress for hopPostroute
	pkt     *ip.Packet
	nextHop ip.Addr
	kind    hopKind
	fire    func() // r.run
	free    *hop   // next record on the host's free list
}

// scheduleHop continues pkt into the kind chain after delay d. The hop record
// owns the packet across the delay.
//
//mnet:ownership takes pkt
func (h *Host) scheduleHop(d time.Duration, kind hopKind, ifc *Iface, pkt *ip.Packet, nextHop ip.Addr) {
	r := h.hopFree
	if r == nil {
		r = &hop{host: h}
		r.fire = r.run
	} else {
		h.hopFree, r.free = r.free, nil
	}
	r.kind, r.iface, r.pkt, r.nextHop = kind, ifc, pkt, nextHop
	h.loop.DelayQueue(d).Schedule(r.fire)
}

// run dispatches the hop. The record drops its packet and goes back on the
// free list first, so the chain it enters can schedule its own hop into it.
func (r *hop) run() {
	h, kind, ifc, pkt, nextHop := r.host, r.kind, r.iface, r.pkt, r.nextHop
	r.iface, r.pkt = nil, nil
	r.free, h.hopFree = h.hopFree, r
	switch kind {
	case hopDeliver:
		h.deliver(ifc, pkt)
	case hopForward:
		h.forward(ifc, pkt)
	case hopPostroute:
		h.postroute(ifc, pkt, nextHop)
	}
}

// drop stages the bookkeeping for a Drop verdict: why, which selects what
// observeVerdict counts and records, and the ip.drop hop's detail, as
// operands rendered only for a reader.
func (c *PacketContext) drop(why dropReason, detail metrics.Detail) pipeline.Verdict {
	c.dropWhy, c.dropDetail = why, detail
	return pipeline.Drop
}

// dropICMP is drop plus an ICMP error (with the usual RFC 792
// suppressions) sent back to the packet's source.
func (c *PacketContext) dropICMP(why dropReason, detail metrics.Detail, typ ip.ICMPType, code uint8) pipeline.Verdict {
	c.icmpSend, c.icmpType, c.icmpCode = true, typ, code
	return c.drop(why, detail)
}

// Drop discards the packet with the given trace reason, accounted under
// the host's DropFilter counter — the verdict external policy hooks use.
func (c *PacketContext) Drop(reason string) pipeline.Verdict {
	return c.drop(dropFilter, metrics.Text(reason))
}

// Reject is Drop plus an ICMP administratively-prohibited error to the
// source, how a polite policy hook declines transit traffic.
func (c *PacketContext) Reject(reason string) pipeline.Verdict {
	return c.dropICMP(dropFilter, metrics.Text(reason), ip.ICMPDestUnreach, ip.CodeAdminProhibited)
}

// MarkDelivered accounts a local delivery performed by a hook that is
// about to return Stolen (a decapsulator consuming the outer packet):
// Delivered is counted and the ip.deliver event recorded, exactly as the
// demux built-in would have done.
func (c *PacketContext) MarkDelivered(detail string) {
	c.Host.stats.Delivered++
	c.Host.pktlog.Record(c.Pkt.Trace, c.Host.name, "ip.deliver", detail)
}

// HeaderDetail packs pkt's header as the operands of a packet-log detail
// of the given kind; via is the egress interface's name where the kind
// renders one.
func HeaderDetail(kind metrics.DetailKind, pkt *ip.Packet, via string) metrics.Detail {
	return metrics.PacketDetail(kind, uint8(pkt.Protocol), pkt.Src, pkt.Dst, pkt.TTL, pkt.Len(), via)
}

// Hooks returns the host's chain at the given stage, for registering
// packet hooks. Chains belong to one host; registration flushes the host's
// route-decision caches.
func (h *Host) Hooks(stage pipeline.Stage) *pipeline.Chain[*PacketContext] {
	return &h.chains[stage]
}

// SetRouteLookup fills the host's one route-lookup slot: the paper's
// single kernel modification, an overridden ip_rt_route(). fn answers
// every route query the decision cache misses; one that declines a lookup
// calls DefaultRouteLookup itself. nil restores the stock lookup. Setting
// or clearing the slot flushes the host's route-decision caches.
func (h *Host) SetRouteLookup(fn func(dst, boundSrc ip.Addr) (RouteDecision, error)) {
	h.routeOverride = fn
	h.invalidate()
}

type packetHook = pipeline.Hook[*PacketContext]

// builtins are the datapath's own steps, one table per stage. They are the
// same on every host and reach theirs through ctx.Host, so every host's
// chains run these tables until it registers a hook of its own on a stage.
var builtins = [pipeline.NumStages]*pipeline.Table[*PacketContext]{
	pipeline.Prerouting: pipeline.NewTable(pipeline.Prerouting,
		packetHook{Name: "classify", Priority: PriLast, Fn: hookClassify}),
	pipeline.Input: pipeline.NewTable(pipeline.Input,
		packetHook{Name: "reassemble", Priority: PriReassemble, Fn: hookReassemble},
		packetHook{Name: "demux", Priority: PriLast, Fn: hookDemux}),
	pipeline.Forward: pipeline.NewTable(pipeline.Forward,
		packetHook{Name: "ttl", Priority: PriForwardTTL, Fn: hookForwardTTL},
		packetHook{Name: "route", Priority: PriForwardRoute, Fn: hookForwardRoute},
		packetHook{Name: "mtu", Priority: PriForwardMTU, Fn: hookForwardMTU},
		packetHook{Name: "redirect", Priority: PriForwardRedirect, Fn: hookForwardRedirect}),
	pipeline.Output: pipeline.NewTable(pipeline.Output,
		packetHook{Name: "unreachable", Priority: PriLast, Fn: hookOutputUnreachable}),
	pipeline.Postrouting: pipeline.NewTable[*PacketContext](pipeline.Postrouting),
}

// initPipeline points the five stage chains at their shared tables.
// Conservative invalidation: any hook change might alter where a packet
// goes, and a stale cached decision must never shadow a newly registered
// hook, so every chain calls the host's one invalidation func on a change.
// Bumping a generation is nearly free.
func (h *Host) initPipeline() {
	h.invalidate = h.InvalidateRoutes
	for s := range h.chains {
		h.chains[s].Init(builtins[s], h.invalidate)
	}
}

// run traverses ctx's stage chain on h, then observes the verdict.
func (h *Host) run(ctx *PacketContext) pipeline.Verdict {
	v := h.chains[ctx.stage].Run(ctx)
	h.observeVerdict(ctx, v)
	return v
}

// observeVerdict is the uniform tracing/metrics/drop-accounting step that
// follows every chain run: a Drop verdict is recorded under its staged
// reason and the staged ICMP error is sent — once, no matter which hook
// decided.
func (h *Host) observeVerdict(ctx *PacketContext, v pipeline.Verdict) {
	if h.chainSpans {
		if t := h.spanTracer(); t != nil {
			// Explicit root: chain runs interleave across packets, so
			// ambient parenting would nest unrelated traversals.
			sp := t.StartChild(nil, h.name, chainSpanKind(ctx.stage))
			sp.SetAttr("verdict", v.String())
			sp.Done()
		}
	}
	if v != pipeline.Drop {
		return
	}
	h.recordDrop(ctx.Pkt.Trace, ctx.dropWhy, ctx.dropDetail)
	if ctx.icmpSend {
		h.icmp.sendError(ctx.icmpType, ctx.icmpCode, ctx.Pkt)
	}
}

// recordDrop is the one place a stack drop is recorded: why selects the
// Stats counter and the drop span's kind (see drops), detail is the ip.drop
// hop's text and the span's reason. observeVerdict calls it for every Drop
// verdict; the two drops no chain sees — a frame that does not parse, and a
// DF packet its egress cannot fragment — call it directly. Whether an ICMP
// error goes back is the dropping site's choice, not the reason's.
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

// hookClassify is PREROUTING's terminal hook: the arrival-time local/
// forward/drop decision. Accepted packets are scheduled past the input
// processing delay into the INPUT or FORWARD chain.
func hookClassify(ctx *PacketContext) pipeline.Verdict {
	h, pkt := ctx.Host, ctx.Pkt
	switch {
	case h.IsLocalAddr(pkt.Dst):
		h.scheduleHop(h.cfg.InputDelay, hopDeliver, ctx.In, pkt, ip.Addr{})
	case h.forwarding && !pkt.Dst.IsMulticast():
		// Multicast is link-scoped here: unicast routers do not forward
		// group traffic.
		h.scheduleHop(h.cfg.InputDelay, hopForward, ctx.In, pkt, ip.Addr{})
	default:
		return ctx.drop(dropNotLocal, metrics.AddrDetail(metrics.DetailNotLocal, pkt.Dst, ""))
	}
	return pipeline.Stolen
}

// hookReassemble swaps a completing fragment for its reassembled datagram
// and parks incomplete ones; routers forward fragments untouched, so this
// lives only on the local-delivery (INPUT) chain.
func hookReassemble(ctx *PacketContext) pipeline.Verdict {
	if !ctx.Pkt.IsFragment() {
		return pipeline.Accept
	}
	h := ctx.Host
	full, done := h.reasm.Add(ctx.Pkt)
	if !done {
		h.armSweep()
		// Parked in the reassembly buffer, which owns it now, not dropped;
		// sweep expiry is accounted there.
		return pipeline.Stolen
	}
	ctx.Pkt = full
	return pipeline.Accept
}

// hookDemux is INPUT's terminal hook: hand the packet to its protocol
// handler, with ICMP built in as the fallback for its protocol number. A
// delivered packet dies here, when the handler it was lent to returns.
func hookDemux(ctx *PacketContext) pipeline.Verdict {
	h, ifc, pkt := ctx.Host, ctx.In, ctx.Pkt
	handler, ok := h.handlers[pkt.Protocol]
	if !ok {
		if pkt.Protocol == ip.ProtoICMP {
			if h.icmp.input(pkt) != nil {
				return ctx.drop(dropBadPacket, metrics.Text("bad packet"))
			}
			h.stats.Delivered++
			h.pktlog.Record(pkt.Trace, h.name, "ip.deliver", "icmp")
			pkt.Release()
			return pipeline.Stolen
		}
		return ctx.drop(dropNoHandler, metrics.ProtoDetail(metrics.DetailNoHandler, uint8(pkt.Protocol)))
	}
	h.stats.Delivered++
	h.pktlog.RecordDetail(pkt.Trace, h.name, "ip.deliver", metrics.ProtoDetail(metrics.DetailProto, uint8(pkt.Protocol)))
	handler(ifc, pkt)
	pkt.Release()
	return pipeline.Stolen
}

// hookForwardTTL bounces expiring packets with the traceroute-visible
// ICMP time-exceeded error.
func hookForwardTTL(ctx *PacketContext) pipeline.Verdict {
	if ctx.Pkt.TTL <= 1 {
		return ctx.dropICMP(dropTTL, metrics.Text("ttl expired"), ip.ICMPTimeExceeded, 0)
	}
	return pipeline.Accept
}

func noRouteTo(dst ip.Addr) metrics.Detail {
	return metrics.AddrDetail(metrics.DetailNoRoute, dst, "")
}

// hookForwardRoute resolves the transit route through the forwarding
// cache, filling Out/NextHop/Route. A hook registered earlier may have
// steered the packet already (Routed set), in which case the table is
// left unconsulted.
func hookForwardRoute(ctx *PacketContext) pipeline.Verdict {
	if ctx.Routed {
		return pipeline.Accept
	}
	r, ok := ctx.Host.lookupForward(ctx.Pkt.Dst)
	if !ok {
		return ctx.dropICMP(dropNoRoute, noRouteTo(ctx.Pkt.Dst), ip.ICMPDestUnreach, ip.CodeNetUnreach)
	}
	nh := r.Gateway
	if nh.IsUnspecified() {
		nh = ctx.Pkt.Dst
	}
	ctx.Route, ctx.Out, ctx.NextHop, ctx.Routed = r, r.Iface, nh, true
	return pipeline.Accept
}

// hookForwardMTU bounces DF packets too big for the chosen egress with
// the ICMP error path-MTU discovery depends on.
func hookForwardMTU(ctx *PacketContext) pipeline.Verdict {
	if mtu := ctx.Out.MTU(); mtu > 0 && ctx.Pkt.Len() > mtu && ctx.Pkt.DontFrag {
		return ctx.dropICMP(dropMTU, metrics.Text("df packet exceeds mtu"), ip.ICMPDestUnreach, ip.CodeFragNeeded)
	}
	return pipeline.Accept
}

// hookForwardRedirect tells an on-subnet sender about a better first hop
// when the packet leaves the way it came in, still forwarding the packet
// (RFC 792 behaviour).
func hookForwardRedirect(ctx *PacketContext) pipeline.Verdict {
	if ctx.Out == ctx.In && ctx.In.prefix.Contains(ctx.Pkt.Src) && !ctx.In.pointToPoint {
		ctx.Host.icmp.sendRedirect(ctx.Pkt, ctx.NextHop)
	}
	return pipeline.Accept
}

// hookOutputUnreachable is OUTPUT's terminal hook: a locally originated
// packet whose route lookup failed is dropped with accounting and an ICMP
// Destination Unreachable back to the (bound) source, rather than
// vanishing silently.
func hookOutputUnreachable(ctx *PacketContext) pipeline.Verdict {
	if ctx.RouteErr == nil {
		return pipeline.Accept
	}
	return ctx.dropICMP(dropNoRoute, noRouteTo(ctx.Pkt.Dst), ip.ICMPDestUnreach, ip.CodeNetUnreach)
}

// resolveRoute answers one route query: the override if one is set, else
// the stock longest-prefix match.
func (h *Host) resolveRoute(dst, boundSrc ip.Addr) (RouteDecision, error) {
	if h.routeOverride != nil {
		return h.routeOverride(dst, boundSrc)
	}
	return h.DefaultRouteLookup(dst, boundSrc)
}

// postroute runs the POSTROUTING chain and hands the packet to the chosen
// interface. Every packet leaving the host — locally originated or
// forwarded — funnels through here; encapsulating hooks steal their VIF's
// packets at this stage.
//
//mnet:ownership takes pkt
func (h *Host) postroute(ifc *Iface, pkt *ip.Packet, nextHop ip.Addr) {
	ctx := h.acquireCtx(pipeline.Postrouting, pkt)
	ctx.Out, ctx.NextHop, ctx.Routed = ifc, nextHop, true
	if v := h.run(ctx); v == pipeline.Accept {
		ifc, pkt, nextHop = ctx.Out, ctx.Pkt, ctx.NextHop
		h.releaseCtx(ctx)
		ifc.send(pkt, nextHop)
	} else {
		h.endRun(ctx, v)
	}
}
