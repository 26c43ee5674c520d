package mip

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/metrics"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/stack"
	"mosquitonet/internal/trace"
	"mosquitonet/internal/transport"
	"mosquitonet/internal/tunnel"
)

// HomeAgentConfig configures a home agent.
type HomeAgentConfig struct {
	// HomeIface is the agent's interface on the home subnet; proxy ARP and
	// gratuitous ARPs for absent mobile hosts go out here.
	HomeIface *stack.Iface
	// HomePrefix is the home subnet; registrations for addresses outside
	// it are denied.
	HomePrefix ip.Prefix
	// ProcessingDelay models the agent's per-request software cost; the
	// paper measures 1.48 ms on its Pentium 90.
	ProcessingDelay time.Duration
	// Tracer, if set, records registration processing events.
	Tracer *trace.Tracer
}

// HomeAgentStats counts agent activity.
type HomeAgentStats struct {
	Requests        uint64
	Accepted        uint64
	Denied          uint64
	Deregistrations uint64
	Expired         uint64
	Duplicated      uint64 // packet copies emitted for simultaneous bindings
	DropMalformed   uint64 // control datagrams that failed to parse
	DropWhileDown   uint64 // control datagrams dropped while crashed
	Crashes         uint64 // injected crash/restart cycles
}

// Binding is one mobility binding: a mobile host's current location.
// Extras holds additional care-of addresses registered with the
// simultaneous-bindings flag; the agent duplicates tunneled packets to
// every address in the set.
type Binding struct {
	HomeAddr ip.Addr
	CareOf   ip.Addr
	Extras   []ip.Addr
	Expires  sim.Time
	ID       uint64 // identification of the registration that installed it
}

// haBinding is a home address's entry in the binding table, from its first
// registration until it deregisters or expires: a re-registration — every
// handoff of a roaming host — updates it in place and re-arms its timer.
type haBinding struct {
	Binding
	ha     *HomeAgent
	timer  sim.Timer
	expire func() // b.expired, bound once
}

// delayedReply is a registration reply waiting out the agent's processing
// delay; the records are recycled through HomeAgent.idle.
type delayedReply struct {
	ha    *HomeAgent
	reply RegReply
	to    ip.Addr
	port  uint16
	span  *trace.Span // "reg.serve"
	fire  func()      // r.send
}

// HomeAgent implements the home-network half of the protocol: it answers
// registration requests, intercepts packets for registered-away mobile
// hosts by proxy ARP, tunnels them to care-of addresses through its
// VIF/IPIP module, and decapsulates reverse-tunneled packets for
// forwarding to correspondents.
type HomeAgent struct {
	host *stack.Host
	ts   *transport.Stack
	cfg  HomeAgentConfig
	tun  *tunnel.Endpoint
	sock *transport.UDPSocket

	bindings map[ip.Addr]*haBinding
	req      RegRequest      // the request being processed, decoded in place
	idle     []*delayedReply // records free for reuse
	// lastID tracks the highest identification accepted per home address.
	// Requests with stale identifications are rejected — the replay
	// protection RFC 2002's identification field exists for. (The paper
	// defers full authentication; this is the protocol-level half.)
	lastID map[ip.Addr]uint64
	stats  HomeAgentStats

	// down marks a crashed agent: registration traffic is dropped (and
	// counted) until Restart. A crash loses the soft mobility state — the
	// binding table — exactly like the daemon dying on the real router; it
	// keeps lastID, as replay protection persists across restarts.
	down bool
}

// ErrNotOnHomeSubnet is returned when the configured interface has no
// address inside the home prefix.
var ErrNotOnHomeSubnet = errors.New("mip: home agent interface not on home subnet")

// NewHomeAgent starts a home agent on ts. It binds UDP port 434, installs
// the VIF/IPIP module, and enables IP forwarding (required to relay
// decapsulated reverse-tunnel traffic onward).
func NewHomeAgent(ts *transport.Stack, cfg HomeAgentConfig) (*HomeAgent, error) {
	if cfg.HomeIface == nil || !cfg.HomePrefix.Contains(cfg.HomeIface.Addr()) {
		return nil, ErrNotOnHomeSubnet
	}
	ha := &HomeAgent{
		host:     ts.Host(),
		ts:       ts,
		cfg:      cfg,
		bindings: make(map[ip.Addr]*haBinding),
		lastID:   make(map[ip.Addr]uint64),
	}
	ha.tun = tunnel.New(ha.host, "vif0",
		func() (ip.Addr, bool) { return cfg.HomeIface.Addr(), true },
		ha.tunnelDst)
	sock, err := ts.UDP(ip.Unspecified, Port, ha.input)
	if err != nil {
		return nil, fmt.Errorf("mip: home agent binding port %d: %w", Port, err)
	}
	ha.sock = sock
	ha.host.SetForwarding(true)
	metrics.For(ha.host.Loop()).Collect(func(c *metrics.Collection) {
		host := metrics.L("host", ha.host.Name())
		c.Counter("mip.ha.requests", ha.stats.Requests, host)
		c.Counter("mip.ha.accepted", ha.stats.Accepted, host)
		c.Counter("mip.ha.denied", ha.stats.Denied, host)
		c.Counter("mip.ha.deregistrations", ha.stats.Deregistrations, host)
		c.Counter("mip.ha.expired", ha.stats.Expired, host)
		c.Counter("mip.ha.duplicated", ha.stats.Duplicated, host)
		c.Gauge("mip.ha.bindings", int64(len(ha.bindings)), host)
	})
	return ha, nil
}

// Addr returns the agent's address on the home subnet.
func (ha *HomeAgent) Addr() ip.Addr { return ha.cfg.HomeIface.Addr() }

// Stats returns a snapshot of the counters.
func (ha *HomeAgent) Stats() HomeAgentStats { return ha.stats }

// Tunnel returns the agent's tunnel endpoint (for its statistics).
func (ha *HomeAgent) Tunnel() *tunnel.Endpoint { return ha.tun }

// Binding returns the current binding for a home address.
func (ha *HomeAgent) Binding(home ip.Addr) (Binding, bool) {
	b, ok := ha.bindings[home]
	if !ok {
		return Binding{}, false
	}
	return b.Binding, true
}

// Bindings returns all active bindings in a fresh slice, ordered by home
// address so the result is stable across runs regardless of map iteration
// order.
func (ha *HomeAgent) Bindings() []Binding {
	out := make([]Binding, 0, len(ha.bindings))
	for _, b := range ha.bindings {
		out = append(out, b.Binding)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].HomeAddr.Less(out[j].HomeAddr) })
	return out
}

// tunnelDst is the VIF's destination callback: the care-of address bound
// to the inner packet's destination. With simultaneous bindings, copies
// are emitted to every extra care-of address as a side effect and the
// primary is returned for the normal path.
func (ha *HomeAgent) tunnelDst(inner *ip.Packet) (ip.Addr, bool) {
	b, ok := ha.bindings[inner.Dst]
	if !ok {
		//lint:allow dropaccounting the tunnel VIF accounts drop_no_dst when the resolver declines
		return ip.Addr{}, false
	}
	for _, extra := range b.Extras {
		outer, err := ip.Encapsulate(ha.Addr(), extra, ip.DefaultTTL, ha.host.NextID(), inner)
		if err == nil {
			ha.stats.Duplicated++
			ha.host.Output(outer)
		}
	}
	return b.CareOf, true
}

// Crash simulates the agent daemon dying: every binding is torn down (in
// home-address order, so the teardown is deterministic) and registration
// requests are dropped until Restart. Proxy ARP entries and tunnel routes
// go with the bindings, so traffic for away mobile hosts blacks out until
// they re-register with the restarted agent.
func (ha *HomeAgent) Crash() {
	if ha.down {
		return
	}
	ha.down = true
	ha.stats.Crashes++
	for _, b := range ha.Bindings() {
		ha.remove(b.HomeAddr)
	}
}

// Restart brings a crashed agent back with an empty binding table. Mobile
// hosts recover on their next registration (typically the renewal at 3/4
// lifetime).
func (ha *HomeAgent) Restart() { ha.down = false }

// SetProcessingDelay changes the per-request software cost at runtime —
// the fault-injection seam for an overloaded agent. Returns the previous
// delay so the injector can restore it.
func (ha *HomeAgent) SetProcessingDelay(d time.Duration) (prev time.Duration) {
	prev = ha.cfg.ProcessingDelay
	ha.cfg.ProcessingDelay = d
	return prev
}

func (ha *HomeAgent) trace(kind string, o trace.Operands) {
	ha.cfg.Tracer.RecordOps(ha.host.Name(), kind, renderDetail, o)
}

func (ha *HomeAgent) input(d transport.Datagram) {
	if ha.down {
		ha.stats.DropWhileDown++
		return
	}
	req := &ha.req
	if typ, err := MessageType(d.Payload); err != nil || typ != TypeRegRequest || UnmarshalRegRequest(req, d.Payload) != nil {
		ha.stats.DropMalformed++
		return
	}
	ha.stats.Requests++
	ha.trace(kRegRequestReceived, trace.Operands{A: req.HomeAddr, B: req.CareOf, I: int32(req.Lifetime), N: req.ID})
	ha.process(req, d)
}

// process validates the request and updates the binding table immediately
// — packets start flowing to the new care-of address as soon as the
// request is accepted — while the reply goes out after the agent's
// processing delay, the 1.48 ms the paper measures between receiving a
// request and sending its reply.
func (ha *HomeAgent) process(req *RegRequest, d transport.Datagram) {
	// An explicit root: overlapping requests (a fleet re-registering) must
	// not nest under one another in the agent's ambient span context.
	sp := ha.cfg.Tracer.StartChild(nil, ha.host.Name(), kSpanRegServe)
	sp.SetAddr("home", req.HomeAddr)
	sp.SetUint("id", req.ID)
	code := uint8(CodeAccepted)
	granted := req.Lifetime
	switch {
	case !ha.cfg.HomePrefix.Contains(req.HomeAddr):
		code = CodeDeniedBadHomeAddr
	case req.HomeAgent != ha.Addr():
		code = CodeDeniedBadRequest
	case !req.IsDeregistration() && req.CareOf.IsUnspecified():
		code = CodeDeniedBadRequest
	case req.ID <= ha.lastID[req.HomeAddr]:
		code = CodeDeniedBadID // stale or replayed identification
	}
	if code == CodeAccepted {
		ha.lastID[req.HomeAddr] = req.ID
		if max := uint16(maxLifetime / time.Second); granted > max {
			granted = max
		}
		if req.IsDeregistration() || req.CareOf == req.HomeAddr {
			ha.deregister(req.HomeAddr)
			granted = 0
		} else {
			ha.register(req, granted)
		}
	} else {
		ha.stats.Denied++
	}
	var r *delayedReply
	if k := len(ha.idle); k > 0 {
		r, ha.idle = ha.idle[k-1], ha.idle[:k-1]
	} else {
		r = &delayedReply{ha: ha}
		r.fire = r.send
	}
	r.reply = RegReply{Code: code, Lifetime: granted, HomeAddr: req.HomeAddr, ID: req.ID}
	r.to, r.port, r.span = d.From, d.FromPort, sp
	if ha.cfg.ProcessingDelay > 0 {
		ha.host.Loop().Schedule(ha.host.Loop().Jitter(ha.cfg.ProcessingDelay, ha.cfg.ProcessingDelay/12), r.fire)
	} else {
		r.send()
	}
}

// send transmits the reply and gives the record back.
func (r *delayedReply) send() {
	ha := r.ha
	r.reply.HomeAgent = ha.Addr()
	ha.trace(kRegReplySent, trace.Operands{I: int32(r.reply.Code), J: int32(r.reply.Lifetime), N: r.reply.ID})
	r.span.SetAttr("code", CodeString(r.reply.Code))
	r.span.Done()
	ha.sock.SendTo(r.to, r.port, r.reply.Marshal())
	r.span = nil
	ha.idle = append(ha.idle, r)
}

// register installs or refreshes a mobility binding: the proxy ARP
// publication, the gratuitous ARP voiding stale neighbor entries, the
// host route steering the home address into the encapsulating VIF, and
// the lifetime timer.
func (ha *HomeAgent) register(req *RegRequest, granted uint16) {
	life := time.Duration(granted) * time.Second
	b, existed := ha.bindings[req.HomeAddr]
	if existed {
		b.timer.Stop()
	} else {
		b = &haBinding{ha: ha}
		b.expire = b.expired
		b.HomeAddr = req.HomeAddr
		ha.bindings[req.HomeAddr] = b
	}
	// Extras is rebuilt, never rewritten: the Bindings handed out share it.
	var extras []ip.Addr
	if existed && req.Simultaneous() {
		// Retain the prior binding set alongside the new care-of address.
		for _, a := range append([]ip.Addr{b.CareOf}, b.Extras...) {
			if a != req.CareOf {
				extras = append(extras, a)
			}
		}
	}
	b.CareOf, b.Extras, b.ID = req.CareOf, extras, req.ID
	b.Expires = ha.host.Loop().Now().Add(life)
	b.timer = ha.host.Loop().Schedule(life, b.expire)
	ha.stats.Accepted++
	if !existed {
		arp := ha.cfg.HomeIface.ARP()
		if arp != nil {
			arp.Publish(req.HomeAddr)
			arp.Gratuitous(req.HomeAddr, ha.cfg.HomeIface.Device().HW())
		}
		ha.host.Routes().Add(stack.Route{
			Dst:   ip.Prefix{Addr: req.HomeAddr, Bits: 32},
			Iface: ha.tun.Iface(),
		})
	}
	ha.trace(kBindingInstalled, trace.Operands{A: req.HomeAddr, B: req.CareOf})
}

// expired is the lifetime timer: remove stops it, register re-arms it, so
// it fires only for the binding still in the table.
func (b *haBinding) expired() {
	ha := b.ha
	if ha.bindings[b.HomeAddr] == b {
		ha.stats.Expired++
		ha.trace(kBindingExpired, trace.Operands{A: b.HomeAddr})
		ha.remove(b.HomeAddr)
	}
}

// deregister handles an explicit deregistration; removing an absent
// binding succeeds (the reply is still "accepted", per the protocol).
func (ha *HomeAgent) deregister(home ip.Addr) {
	ha.stats.Deregistrations++
	ha.remove(home)
}

// remove tears down a binding's proxy state.
func (ha *HomeAgent) remove(home ip.Addr) {
	b, ok := ha.bindings[home]
	if !ok {
		return
	}
	b.timer.Stop()
	delete(ha.bindings, home)
	if arp := ha.cfg.HomeIface.ARP(); arp != nil {
		arp.Unpublish(home)
	}
	ha.host.Routes().Delete(ip.Prefix{Addr: home, Bits: 32})
	ha.trace(kBindingRemoved, trace.Operands{A: home})
}
