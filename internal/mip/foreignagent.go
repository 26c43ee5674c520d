package mip

import (
	"fmt"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/stack"
	"mosquitonet/internal/trace"
	"mosquitonet/internal/transport"
	"mosquitonet/internal/tunnel"
)

// This file implements the optional foreign-agent extension the paper's
// Section 5.1 leaves open ("there is nothing that prevents us from
// implementing or using foreign agents"). It exists so the trade-off the
// paper discusses — an FA can forward straggler packets after the mobile
// host moves on, reducing handoff loss, at the cost of foreign-network
// support — can be measured rather than argued (experiment A2).
//
// In FA mode the mobile host acquires no address at all on the visited
// network: the FA's address is the care-of address, the FA relays
// registrations to the home agent, decapsulates tunneled packets, and
// delivers them on-link (the mobile host answers ARP for its home address
// on the visited link). When the mobile host departs, it can send the FA a
// previous-foreign-agent notification; the FA then re-tunnels stragglers
// to the new care-of address instead of dropping them.

// ForeignAgentConfig configures a foreign agent.
type ForeignAgentConfig struct {
	// Iface is the agent's interface on the visited network.
	Iface *stack.Iface
	// ProcessingDelay models per-message relay cost.
	ProcessingDelay time.Duration
	// Tracer, if set, records relay events.
	Tracer *trace.Tracer
}

// ForeignAgentStats counts agent activity.
type ForeignAgentStats struct {
	AdvertsSent     uint64
	RequestsRelayed uint64
	RepliesRelayed  uint64
	VisitorsActive  int
	Forwarded       uint64 // straggler packets re-tunneled after departure
	Buffered        uint64 // packets the hold interface took for a departing visitor
	DropBuffer      uint64 // of those, dropped: buffer full, or the visitor gone or back
	DropMalformed   uint64 // control datagrams that failed to parse
	DropNotOurs     uint64 // registration requests not addressed through this agent
	DropUnmatched   uint64 // replies and notifications with no matching state
}

type visitorEntry struct {
	home      ip.Addr
	expires   sim.Time
	timer     sim.Timer
	forwardTo ip.Addr // non-zero once a PFA notification arrived
	fwdTimer  sim.Timer

	// buffering holds tunneled packets for a visitor that has announced
	// its departure but not yet registered elsewhere: its route leads to
	// the hold interface (see hold) until the new care-of address arrives
	// and the queue is flushed to it.
	buffering bool
	queue     []*ip.Packet
}

// visitorQueueLimit bounds the departure buffer per visitor.
const visitorQueueLimit = 64

// ForeignAgent is the visited-network agent.
type ForeignAgent struct {
	host    *stack.Host
	ts      *transport.Stack
	cfg     ForeignAgentConfig
	tun     *tunnel.Endpoint
	holdIfc *stack.Iface // where a departing visitor's route leads until it names its new care-of address
	sock    *transport.UDPSocket

	visitors map[ip.Addr]*visitorEntry // keyed by home address
	// pending is the ID of the last request relayed for each home address.
	// A retry carries a fresh ID and replaces its predecessor's, so an
	// unreachable home agent leaves one entry per visitor, not one per try.
	pending map[ip.Addr]uint64
	seq     uint16
	stats   ForeignAgentStats
}

// NewForeignAgent starts a foreign agent on ts, binding UDP port 434,
// installing its decapsulating tunnel endpoint, enabling forwarding, and
// beginning periodic advertisements.
func NewForeignAgent(ts *transport.Stack, cfg ForeignAgentConfig) (*ForeignAgent, error) {
	fa := &ForeignAgent{
		host:     ts.Host(),
		ts:       ts,
		cfg:      cfg,
		visitors: make(map[ip.Addr]*visitorEntry),
		pending:  make(map[ip.Addr]uint64),
	}
	fa.tun = tunnel.New(fa.host, "vif0",
		func() (ip.Addr, bool) { return cfg.Iface.Addr(), true },
		fa.tunnelDst)
	fa.holdIfc = fa.host.AddVirtualIface("hold0", fa.hold)
	sock, err := ts.UDP(ip.Unspecified, Port, fa.input)
	if err != nil {
		return nil, fmt.Errorf("mip: foreign agent binding port %d: %w", Port, err)
	}
	fa.sock = sock
	fa.host.SetForwarding(true)
	fa.advertise()
	return fa, nil
}

// Addr returns the agent's address — its visitors' care-of address.
func (fa *ForeignAgent) Addr() ip.Addr { return fa.cfg.Iface.Addr() }

// Stats returns a snapshot of the counters.
func (fa *ForeignAgent) Stats() ForeignAgentStats {
	s := fa.stats
	s.VisitorsActive = len(fa.visitors)
	return s
}

// Tunnel returns the agent's tunnel endpoint (for its statistics).
func (fa *ForeignAgent) Tunnel() *tunnel.Endpoint { return fa.tun }

// HasVisitor reports whether a home address is in the visitor list.
func (fa *ForeignAgent) HasVisitor(home ip.Addr) bool {
	_, ok := fa.visitors[home]
	return ok
}

// advertise broadcasts an agent advertisement and reschedules itself.
func (fa *ForeignAgent) advertise() {
	fa.seq++
	a := &AgentAdvert{Agent: fa.Addr(), Lifetime: uint16(maxLifetime / time.Second), Seq: fa.seq}
	fa.sock.SendToVia(fa.cfg.Iface, ip.Broadcast, ip.Broadcast, Port, a.Marshal())
	fa.stats.AdvertsSent++
	fa.host.Loop().Schedule(advertInterval, fa.advertise)
}

// tunnelDst resolves re-tunneling for departed visitors: packets for a
// home address with a forwarding binding are encapsulated to the new
// care-of address, and any other packet is the tunnel's drop.
func (fa *ForeignAgent) tunnelDst(inner *ip.Packet) (ip.Addr, bool) {
	v, ok := fa.visitors[inner.Dst]
	if !ok || v.forwardTo.IsUnspecified() {
		//lint:allow dropaccounting the tunnel VIF accounts drop_no_dst when the resolver declines
		return ip.Addr{}, false
	}
	fa.stats.Forwarded++
	return v.forwardTo, true
}

// hold is the hold interface's transmit function. A departing
// visitor's route leads here until it names its new care-of address, and
// its packets are taken, as they are, into its queue until handlePFANotify
// flushes it. A packet past visitorQueueLimit is dropped, and so is one for
// a visitor gone or back. One that arrives after the flush re-enters from
// the VIF, as a flushed packet does.
//
//mnet:ownership takes pkt
func (fa *ForeignAgent) hold(pkt *ip.Packet, _ ip.Addr) {
	fa.stats.Buffered++
	v, ok := fa.visitors[pkt.Dst]
	switch {
	case ok && !v.forwardTo.IsUnspecified():
		fa.host.Input(fa.tun.Iface(), pkt)
	case ok && v.buffering && len(v.queue) < visitorQueueLimit:
		v.queue = append(v.queue, pkt)
	default:
		fa.stats.DropBuffer++
		pkt.Release()
	}
}

// dropQueue drops whatever v still holds: the visitor expired or came back
// before it named a new care-of address.
func (fa *ForeignAgent) dropQueue(v *visitorEntry) {
	for _, pkt := range v.queue {
		pkt.Release()
	}
	fa.stats.DropBuffer += uint64(len(v.queue))
	v.queue = nil
}

func (fa *ForeignAgent) trace(kind string, o trace.Operands) {
	fa.cfg.Tracer.RecordOps(fa.host.Name(), kind, renderDetail, o)
}

func (fa *ForeignAgent) input(d transport.Datagram) {
	typ, err := MessageType(d.Payload)
	if err != nil {
		fa.stats.DropMalformed++
		return
	}
	handle := func() {
		switch typ {
		case TypeRegRequest:
			fa.relayRequest(d)
		case TypeRegReply:
			fa.relayReply(d)
		case TypePFANotify:
			fa.handlePFANotify(d)
		}
	}
	if fa.cfg.ProcessingDelay > 0 {
		// The payload is lent for this call; the relay runs after it.
		d.Payload = append([]byte(nil), d.Payload...)
		fa.host.Loop().Schedule(fa.host.Loop().Jitter(fa.cfg.ProcessingDelay, fa.cfg.ProcessingDelay/12), handle)
	} else {
		handle()
	}
}

// relayRequest forwards a visitor's registration request to its home
// agent, clamping the lifetime to what this agent will serve.
func (fa *ForeignAgent) relayRequest(d transport.Datagram) {
	var req RegRequest
	if err := UnmarshalRegRequest(&req, d.Payload); err != nil {
		fa.stats.DropMalformed++
		return
	}
	if req.CareOf != fa.Addr() && !req.IsDeregistration() {
		fa.stats.DropNotOurs++
		return
	}
	if max := uint16(maxLifetime / time.Second); req.Lifetime > max {
		req.Lifetime = max
	}
	fa.pending[req.HomeAddr] = req.ID
	fa.stats.RequestsRelayed++
	fa.trace(kFARelayRequest, trace.Operands{A: req.HomeAddr, N: req.ID})
	fa.sock.SendTo(req.HomeAgent, Port, req.Marshal())
}

// relayReply forwards the home agent's reply to the visitor and, on
// success, installs the visitor entry and its on-link delivery route.
func (fa *ForeignAgent) relayReply(d transport.Datagram) {
	var reply RegReply
	if err := UnmarshalRegReply(&reply, d.Payload); err != nil {
		fa.stats.DropMalformed++
		return
	}
	home := reply.HomeAddr
	if id, ok := fa.pending[home]; !ok || id != reply.ID {
		fa.stats.DropUnmatched++
		return
	}
	delete(fa.pending, home)
	if reply.Accepted() && reply.Lifetime > 0 {
		fa.installVisitor(home, time.Duration(reply.Lifetime)*time.Second)
	}
	if reply.Accepted() && reply.Lifetime == 0 {
		fa.removeVisitor(home)
	}
	fa.stats.RepliesRelayed++
	fa.trace(kFARelayReply, trace.Operands{A: home, I: int32(reply.Code)})
	fa.sock.SendTo(home, Port, reply.Marshal())
}

func (fa *ForeignAgent) installVisitor(home ip.Addr, life time.Duration) {
	if v, ok := fa.visitors[home]; ok {
		v.timer.Stop()
		v.fwdTimer.Stop()
		fa.dropQueue(v)
	}
	v := &visitorEntry{home: home, expires: fa.host.Loop().Now().Add(life)}
	v.timer = fa.host.Loop().Schedule(life, func() {
		if cur, ok := fa.visitors[home]; ok && cur == v {
			fa.removeVisitor(home)
		}
	})
	fa.visitors[home] = v
	// Deliver decapsulated packets on-link: the visitor answers ARP for
	// its home address on this network. Any stale forwarding route from a
	// previous visit is replaced.
	fa.host.Routes().Delete(ip.Prefix{Addr: home, Bits: 32})
	fa.host.Routes().Add(stack.Route{Dst: ip.Prefix{Addr: home, Bits: 32}, Iface: fa.cfg.Iface})
}

func (fa *ForeignAgent) removeVisitor(home ip.Addr) {
	v, ok := fa.visitors[home]
	if !ok {
		return
	}
	v.timer.Stop()
	v.fwdTimer.Stop()
	fa.dropQueue(v)
	delete(fa.visitors, home)
	fa.host.Routes().Delete(ip.Prefix{Addr: home, Bits: 32})
}

// handlePFANotify handles a departing or departed visitor. With an
// unspecified new care-of address the visitor is announcing departure:
// the agent starts buffering its packets. With a new care-of address the
// agent forwards — flushing anything buffered first — so stragglers
// tunneled here by a home agent that had not yet processed the new
// registration reach the mobile host instead of being lost.
func (fa *ForeignAgent) handlePFANotify(d transport.Datagram) {
	n, err := UnmarshalPFANotify(d.Payload)
	if err != nil {
		fa.stats.DropMalformed++
		return
	}
	v, ok := fa.visitors[n.HomeAddr]
	if !ok {
		fa.stats.DropUnmatched++
		return
	}
	life := time.Duration(n.Lifetime) * time.Second
	v.fwdTimer.Stop()
	v.fwdTimer = fa.host.Loop().Schedule(life, func() {
		if cur, ok := fa.visitors[n.HomeAddr]; ok && cur == v {
			fa.removeVisitor(n.HomeAddr)
		}
	})
	// Steer the home address away from on-link delivery: into the hold
	// interface until the new care-of address is known, then into the
	// re-encapsulating VIF, where tunnelDst forwards it.
	home := ip.Prefix{Addr: n.HomeAddr, Bits: 32}
	fa.host.Routes().Delete(home)
	if n.NewCareOf.IsUnspecified() {
		fa.host.Routes().Add(stack.Route{Dst: home, Iface: fa.holdIfc})
		v.buffering = true
		fa.trace(kFABuffering, trace.Operands{A: n.HomeAddr})
		return
	}
	fa.host.Routes().Add(stack.Route{Dst: home, Iface: fa.tun.Iface()})
	v.forwardTo = n.NewCareOf
	v.buffering = false
	fa.trace(kFAForwarding, trace.Operands{A: n.HomeAddr, B: n.NewCareOf, I: int32(len(v.queue))})
	queued := v.queue
	v.queue = nil
	for _, pkt := range queued {
		fa.host.Input(fa.tun.Iface(), pkt)
	}
}

// --- Mobile-host support for foreign agents -----------------------------

// ConnectViaForeignAgent brings mi up on a network served by a foreign
// agent at faAddr: the mobile host takes no local address, answers ARP for
// its home address on the visited link, uses the agent as its default
// router, and registers with the agent's address as care-of.
func (m *MobileHost) ConnectViaForeignAgent(mi *ManagedIface, faAddr ip.Addr, done func(error)) {
	m.trace(kFAStart, trace.Operands{S: mi.Name(), A: faAddr})
	op := m.newOp(opViaFA, mi, done)
	op.gw = faAddr
	op.bringUp()
}

// registerViaFA registers with the foreign agent's address as care-of,
// sending the request to the agent for relay.
func (m *MobileHost) registerViaFA(faAddr ip.Addr, done func(error)) {
	m.pend(m.cfg.HomeAddr, m.cfg.Lifetime, faAddr, faAddr, done)
}

// NotifyPreviousFA asks the foreign agent the host just left to forward
// stragglers to its new care-of address for the given lifetime. It is
// called after a successful registration on the new network.
func (m *MobileHost) NotifyPreviousFA(fa ip.Addr, newCareOf ip.Addr, lifetime time.Duration) {
	n := &PFANotify{HomeAddr: m.cfg.HomeAddr, NewCareOf: newCareOf, Lifetime: uint16(lifetime / time.Second)}
	m.trace(kPFANotify, trace.Operands{A: fa, B: newCareOf})
	if m.regSock != nil {
		m.regSock.SendTo(fa, Port, n.Marshal())
	}
}

// AnnounceDeparture tells the current foreign agent the host is about to
// leave, so it buffers tunneled packets until NotifyPreviousFA supplies
// the new care-of address. This is the "sufficient warning" case the
// paper discusses for smooth switches. Call it before tearing the old
// interface down.
func (m *MobileHost) AnnounceDeparture(fa ip.Addr, lifetime time.Duration) {
	n := &PFANotify{HomeAddr: m.cfg.HomeAddr, Lifetime: uint16(lifetime / time.Second)}
	m.trace(kPFADeparting, trace.Operands{A: fa})
	if m.regSock != nil {
		m.regSock.SendTo(fa, Port, n.Marshal())
	}
}
