package mip

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"mosquitonet/internal/dhcp"
	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/metrics"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/stack"
	"mosquitonet/internal/trace"
	"mosquitonet/internal/transport"
	"mosquitonet/internal/tunnel"
)

// MobileHostConfig configures a mobile host.
type MobileHostConfig struct {
	HomeAddr   ip.Addr
	HomePrefix ip.Prefix
	HomeAgent  ip.Addr

	// Lifetime is the registration lifetime requested (default 60s); the
	// host re-registers at three quarters of the granted lifetime.
	Lifetime time.Duration

	// ConfigureDelay is the cost of configuring an interface address and
	// RouteChangeDelay the cost of a routing table update — the
	// "pre-registration" steps of the paper's Figure 7 time-line.
	ConfigureDelay   time.Duration
	RouteChangeDelay time.Duration

	// Tracer, if set, records handoff and registration events.
	Tracer *trace.Tracer
}

func (c MobileHostConfig) withDefaults() MobileHostConfig {
	if c.Lifetime == 0 {
		c.Lifetime = 60 * time.Second
	}
	return c
}

// MobileHostStats counts mobility events.
type MobileHostStats struct {
	Registrations   uint64 // accepted registrations (including renewals)
	Renewals        uint64
	Deregistrations uint64
	RegTimeouts     uint64
	RegRequestsSent uint64 // registration requests transmitted (incl. retries)
	RegRetransmits  uint64 // transmissions beyond the first per attempt
	ColdSwitches    uint64
	HotSwitches     uint64
	AddressSwitches uint64
	RegDenied       uint64 // registration replies carrying a denial code
	DropMalformed   uint64 // control datagrams that failed to parse
	DropStaleReply  uint64 // replies for a request no longer pending
}

// LinkChange describes a connectivity change, delivered to OnLinkChange.
// This implements the paper's Section 6 future-work item: informing
// upper layers when bandwidth, latency, and path characteristics change so
// they can adapt.
type LinkChange struct {
	Iface  string
	Medium link.Medium // characteristics of the new link
	CareOf ip.Addr
	AtHome bool
}

// StaticConfig configures an interface without DHCP.
type StaticConfig struct {
	Addr    ip.Addr
	Prefix  ip.Prefix
	Gateway ip.Addr
}

// ManagedIface is an interface under the mobile host's control.
type ManagedIface struct {
	m      *MobileHost
	ifc    *stack.Iface
	static *StaticConfig
	dhcpc  *dhcp.Client

	gateway ip.Addr
	addr    ip.Addr
	prefix  ip.Prefix
	ready   bool // up, addressed, and routed
}

// Name returns the interface name.
func (mi *ManagedIface) Name() string { return mi.ifc.Name() }

// Iface returns the underlying stack interface.
func (mi *ManagedIface) Iface() *stack.Iface { return mi.ifc }

// Addr returns the interface's current address.
func (mi *ManagedIface) Addr() ip.Addr { return mi.addr }

// Gateway returns the interface's current default gateway.
func (mi *ManagedIface) Gateway() ip.Addr { return mi.gateway }

// Ready reports whether the interface is up, addressed, and routed.
func (mi *ManagedIface) Ready() bool { return mi.ready }

// Mobility errors.
var (
	ErrRegistrationTimeout = errors.New("mip: registration timed out")
	ErrRegistrationDenied  = errors.New("mip: registration denied")
	ErrIfaceNotReady       = errors.New("mip: interface not ready")
	ErrNoActiveIface       = errors.New("mip: no active interface")
)

// MobileHost is the mobile side of the protocol. It owns the host's route
// lookup override (the paper's modified ip_rt_route()), the Mobile Policy
// Table, the encapsulating VIF, and the managed physical interfaces it
// switches between.
type MobileHost struct {
	host *stack.Host
	ts   *transport.Stack
	cfg  MobileHostConfig

	policy    *PolicyTable
	tunHA     *tunnel.Endpoint // vif0: tunnel to/from the home agent
	tunDirect *tunnel.Endpoint // vif1: encapsulated-direct to smart correspondents

	ifaces []*ManagedIface
	active *ManagedIface

	atHome     bool
	careOf     ip.Addr
	faAddr     ip.Addr // non-zero in foreign-agent mode
	registered bool

	// The host has one registration of its own in flight at a time, so the
	// exchange's state lives as long as the host and every pend reuses it:
	// socket rebound, own refilled, callbacks bound once. cancelPending stops
	// both timers first, and a reply must match own.req.ID, which no earlier
	// exchange carried.
	regSock  *transport.UDPSocket
	regID    uint64
	regTimer sim.Timer
	reregT   sim.Timer
	pending  *regAttempt // &own while the host's own exchange is open
	own      regAttempt
	renewFn  func() // m.renew

	// OnLinkChange, OnRegistered and OnDeregistered notify interested
	// upper layers; all are optional.
	OnLinkChange   func(LinkChange)
	OnRegistered   func(careOf ip.Addr)
	OnDeregistered func()

	stats MobileHostStats

	// regLatency observes the time from an attempt's first transmission
	// to its accepted reply — the paper's Figure 7 headline number.
	regLatency metrics.Histogram
}

// regAttempt is one registration exchange in flight — the request, its
// retries and the reply — and the only such record: the host's own
// registration (m.own, on m.regSock, retried by m.regTimer) and an
// additional binding (side non-nil, a record of its own) run the same
// newRequest / send / reply / closeAttempt.
type regAttempt struct {
	req       RegRequest
	dst       ip.Addr // where to send; zero means the home agent
	tries     int32
	firstSent sim.Time
	done      func(error)
	span      *trace.Span   // "reg.attempt": first transmission to outcome
	side      *sideExchange // an additional binding's own socket and timer
	retry     func()        // send(p) again, bound once per record
}

type sideExchange struct {
	sock  *transport.UDPSocket
	timer sim.Timer
}

// NewMobileHost wraps ts's host with mobility support: it installs the
// route lookup override, the VIF/IPIP tunnel endpoints, and registers the
// home address as always-local (tunneled packets arrive addressed to it).
// The override reads the Mobile Policy Table and the care-of state on every
// packet, so a policy edit or a handoff step routes the next packet by it.
func NewMobileHost(ts *transport.Stack, cfg MobileHostConfig) *MobileHost {
	m := &MobileHost{
		host:   ts.Host(),
		ts:     ts,
		cfg:    cfg.withDefaults(),
		policy: NewPolicyTable(),
		regID:  uint64(ts.Host().Loop().Rand().Uint32()) << 16,
	}
	// The host has one decapsulation slot and the last endpoint made fills
	// it, so inbound tunneled traffic is attributed to vif0, the home-agent
	// tunnel.
	m.tunDirect = tunnel.New(m.host, "vif1",
		m.currentCareOf,
		func(inner *ip.Packet) (ip.Addr, bool) { return inner.Dst, true })
	m.tunHA = tunnel.New(m.host, "vif0",
		m.currentCareOf,
		func(*ip.Packet) (ip.Addr, bool) { return m.cfg.HomeAgent, true })
	m.host.AddLocalAddr(m.cfg.HomeAddr)
	// The paper's modified ip_rt_route(): it consults the Mobile Policy
	// Table or delegates to the default lookup itself.
	m.host.SetRouteLookup(m.routeLookup)
	metrics.Add(metrics.For(m.host.Loop()), m, (*MobileHost).collect)
	return m
}

// collect emits the mobile host's counters, the policy table's hit rate,
// and the registration-latency histogram (a detached handle held in the
// mobile host, which observes into it; each snapshot is handed its samples). NewMobileHost puts
// the host on the loop's registry's list of mobile hosts, one pointer a host
// instead of a closure.
func (m *MobileHost) collect(c *metrics.Collection) {
	host := metrics.L("host", m.host.Name())
	c.Histogram("mip.mh.registration_latency", &m.regLatency, host)
	c.Counter("mip.mh.registrations", m.stats.Registrations, host)
	c.Counter("mip.mh.renewals", m.stats.Renewals, host)
	c.Counter("mip.mh.deregistrations", m.stats.Deregistrations, host)
	c.Counter("mip.mh.reg_timeouts", m.stats.RegTimeouts, host)
	c.Counter("mip.mh.reg_requests_sent", m.stats.RegRequestsSent, host)
	c.Counter("mip.mh.reg_retransmits", m.stats.RegRetransmits, host)
	c.Counter("mip.mh.cold_switches", m.stats.ColdSwitches, host)
	c.Counter("mip.mh.hot_switches", m.stats.HotSwitches, host)
	c.Counter("mip.mh.address_switches", m.stats.AddressSwitches, host)
	c.Counter("mip.mh.handoffs",
		m.stats.ColdSwitches+m.stats.HotSwitches+m.stats.AddressSwitches, host)
	c.Counter("mip.policy.lookups", m.policy.Lookups(), host)
	c.Counter("mip.policy.hits", m.policy.Hits(), host)
}

// Host returns the underlying stack host.
func (m *MobileHost) Host() *stack.Host { return m.host }

// Transport returns the host's transport stack.
func (m *MobileHost) Transport() *transport.Stack { return m.ts }

// Policy returns the Mobile Policy Table.
func (m *MobileHost) Policy() *PolicyTable { return m.policy }

// Tunnel returns the home-agent tunnel endpoint (for statistics).
func (m *MobileHost) Tunnel() *tunnel.Endpoint { return m.tunHA }

// Stats returns a snapshot of the counters.
func (m *MobileHost) Stats() MobileHostStats { return m.stats }

// HomeAddr returns the host's permanent home address.
func (m *MobileHost) HomeAddr() ip.Addr { return m.cfg.HomeAddr }

// CareOf returns the current care-of address (zero at home).
func (m *MobileHost) CareOf() ip.Addr { return m.careOf }

// AtHome reports whether the host believes it is on its home subnet.
func (m *MobileHost) AtHome() bool { return m.atHome }

// Registered reports whether a registration is active at the home agent.
func (m *MobileHost) Registered() bool { return m.registered }

// Active returns the active managed interface, or nil.
func (m *MobileHost) Active() *ManagedIface { return m.active }

// currentCareOf is the tunnels' outer-source callback.
func (m *MobileHost) currentCareOf() (ip.Addr, bool) {
	if m.careOf.IsUnspecified() {
		return ip.Addr{}, false
	}
	return m.careOf, true
}

// AddInterface places a device under mobility management. static, if
// non-nil, is the interface's fixed configuration on foreign networks
// (e.g. the radio subnet's preassigned address); when nil, foreign
// attachments acquire a care-of address by DHCP. Attaching to the home
// subnet (ConnectHome, ColdSwitchHome) always uses the home address and
// needs no static config. The device is left down; Connect* operations
// bring it up.
func (m *MobileHost) AddInterface(name string, dev *link.Device, pointToPoint bool, static *StaticConfig) (*ManagedIface, error) {
	ifc := m.host.AddIface(name, dev, ip.Unspecified, ip.Prefix{}, stack.IfaceOpts{PointToPoint: pointToPoint})
	mi := &ManagedIface{m: m, ifc: ifc, static: static}
	if static == nil {
		c, err := dhcp.NewClient(m.ts, ifc, dhcp.ClientConfig{})
		if err != nil {
			return nil, err
		}
		mi.dhcpc = c
	}
	m.ifaces = append(m.ifaces, mi)
	return mi, nil
}

// Interfaces returns the managed interfaces.
func (m *MobileHost) Interfaces() []*ManagedIface {
	return append([]*ManagedIface(nil), m.ifaces...)
}

// trace records through the configured tracer.
func (m *MobileHost) trace(kind string, o trace.Operands) {
	m.cfg.Tracer.RecordOps(m.host.Name(), kind, renderDetail, o)
}

// startSpan opens a span under the host's ambient span context (nil-safe,
// like trace).
func (m *MobileHost) startSpan(kind string) *trace.Span {
	return m.cfg.Tracer.StartSpan(m.host.Name(), kind)
}

// --- Connectivity operations -------------------------------------------

// ConnectHome brings mi up on the home subnet: the home address goes on
// the interface, routes are installed, any registration is cleared with
// the home agent, and a gratuitous ARP reclaims the address from the
// agent's proxy. done receives the deregistration outcome.
func (m *MobileHost) ConnectHome(mi *ManagedIface, gateway ip.Addr, done func(error)) {
	op := m.newOp(opHome, mi, done)
	op.gw = gateway
	op.connect(kSpanHomeAttach, kHomeAttachStart)
}

// ConnectForeign brings mi up on a foreign network: the device comes up,
// a care-of address is acquired (DHCP unless static), routes are
// installed, and the care-of address is registered with the home agent.
// done receives the registration outcome.
func (m *MobileHost) ConnectForeign(mi *ManagedIface, done func(error)) {
	m.newOp(opForeign, mi, done).connect(kSpanConnect, kBringupStart)
}

// Prepare acquires an address and installs routes on an already-up
// interface without making it active — the staging step of a hot switch.
func (m *MobileHost) Prepare(mi *ManagedIface, done func(error)) {
	m.newOp(opPrepare, mi, done).acquire()
}

// SwitchAddress changes the care-of address on the active interface to a
// new address on the same subnet — the paper's first experiment, measuring
// the minimal software overhead of a switch.
func (m *MobileHost) SwitchAddress(newAddr ip.Addr, done func(error)) {
	mi := m.active
	if mi == nil {
		if done != nil {
			done(ErrNoActiveIface)
		}
		return
	}
	m.stats.AddressSwitches++
	op := m.newOp(opAddr, mi, done)
	op.root = m.startSpan(kSpanAddrSwitch)
	op.root.SetAddr("old", mi.addr)
	op.root.SetAddr("new", newAddr)
	m.trace(kAddrSwitchStart, trace.Operands{A: mi.addr, B: newAddr})
	op.configure(newAddr, mi.prefix, mi.gateway)
}

// ColdSwitch tears down the active interface before bringing up the new
// one on a foreign network: delete the old routes, take the device down,
// bring the new device up, address and route it, and register — the
// paper's cold-switch sequence, with its full loss window.
func (m *MobileHost) ColdSwitch(to *ManagedIface, done func(error)) {
	m.coldSwitch(opCold, to, ip.Addr{}, done)
}

// ColdSwitchHome is ColdSwitch toward the home subnet: the new interface
// comes up with the home address and the host deregisters.
func (m *MobileHost) ColdSwitchHome(to *ManagedIface, gateway ip.Addr, done func(error)) {
	m.coldSwitch(opColdHome, to, gateway, done)
}

func (m *MobileHost) coldSwitch(kind switchKind, to *ManagedIface, gateway ip.Addr, done func(error)) {
	op := m.newOp(kind, to, done)
	op.from, op.gw = m.active, gateway
	m.stats.ColdSwitches++
	op.root = m.startSpan(kSpanHandoffCold)
	op.root.SetAttr("from", nameOf(op.from))
	op.root.SetAttr("to", to.Name())
	m.trace(kColdStart, trace.Operands{S: nameOf(op.from), T: to.Name()})
	op.after(phTeardown, m.cfg.RouteChangeDelay)
}

// HotSwitch moves the active role to an interface that is already up and
// prepared, keeping the old interface up until the switch completes.
func (m *MobileHost) HotSwitch(to *ManagedIface, done func(error)) {
	m.newOp(opHot, to, done).hotSwitch()
}

// MakeBeforeBreak is the whole hot switch from a down device: raise to's
// device, Prepare it in the background while the active interface keeps
// carrying traffic, then HotSwitch over. done receives the first failure,
// or the switch's outcome.
func (m *MobileHost) MakeBeforeBreak(to *ManagedIface, done func(error)) {
	m.newOp(opMakeBeforeBreak, to, done).bringUp()
}

// Disconnect takes an interface down (out of coverage, card ejected).
func (m *MobileHost) Disconnect(mi *ManagedIface) {
	m.teardown(mi)
	if m.active == mi {
		m.active = nil
	}
}

func (m *MobileHost) teardown(mi *ManagedIface) {
	if mi.dhcpc != nil {
		mi.dhcpc.Stop()
	}
	if arp := mi.ifc.ARP(); arp != nil {
		arp.Unpublish(m.cfg.HomeAddr) // foreign-agent mode publication
	}
	if m.active == mi {
		m.faAddr = ip.Addr{}
	}
	m.host.Routes().DeleteIface(mi.ifc)
	mi.ifc.Device().BringDown()
	mi.ifc.SetAddr(ip.Unspecified, ip.Prefix{})
	mi.addr = ip.Addr{}
	mi.ready = false
	m.trace(kIfaceDown, trace.Operands{S: mi.Name()})
}

// switchDefaultRoute points the default route at mi.
func (m *MobileHost) switchDefaultRoute(mi *ManagedIface) {
	m.host.Routes().Delete(ip.Prefix{})
	if !mi.gateway.IsUnspecified() {
		m.host.AddDefaultRoute(mi.gateway, mi.ifc)
	} else {
		m.host.Routes().Add(stack.Route{Dst: ip.Prefix{}, Iface: mi.ifc})
	}
}

func nameOf(mi *ManagedIface) string {
	if mi == nil {
		return "<none>"
	}
	return mi.Name()
}

// notifyLink delivers a LinkChange to the upper layers.
func (m *MobileHost) notifyLink(mi *ManagedIface) {
	if m.OnLinkChange == nil {
		return
	}
	var medium link.Medium
	if dev := mi.ifc.Device(); dev != nil && dev.Network() != nil {
		medium = dev.Network().Medium()
	}
	m.OnLinkChange(LinkChange{Iface: mi.Name(), Medium: medium, CareOf: mi.addr, AtHome: m.atHome})
}

// --- Registration -------------------------------------------------------

// register sends a registration request for careOf and retries until a
// reply arrives or the attempt times out.
func (m *MobileHost) register(careOf ip.Addr, lifetime time.Duration, done func(error)) {
	m.careOf = careOf
	m.atHome = false
	m.faAddr = ip.Addr{} // collocated care-of mode
	m.pend(careOf, lifetime, careOf, ip.Addr{}, done)
}

// deregister clears the binding at the home agent (lifetime zero).
func (m *MobileHost) deregister(done func(error)) {
	m.pend(m.cfg.HomeAddr, 0, m.cfg.HomeAddr, ip.Addr{}, done)
}

// newRequest opens an exchange on p (the host's own record, or a fresh one
// with side set): the next identification, the request, and the span that
// times it. dst is the foreign agent relaying the request, or zero for the
// home agent itself.
func (m *MobileHost) newRequest(p *regAttempt, flags uint8, lifetime time.Duration, careOf, dst ip.Addr, done func(error)) {
	m.regID++
	p.req = RegRequest{
		Flags:     flags,
		Lifetime:  uint16(lifetime / time.Second),
		HomeAddr:  m.cfg.HomeAddr,
		HomeAgent: m.cfg.HomeAgent,
		CareOf:    careOf,
		ID:        m.regID,
	}
	p.dst, p.tries, p.done = dst, 0, done
	p.span = m.startSpan(kSpanRegAttempt)
	if p.retry == nil {
		p.retry = func() { m.send(p) }
	}
	// Attribute order is part of the span export; send adds "tries" next.
	if p.req.IsDeregistration() {
		p.span.SetAttr("dereg", "true")
	} else {
		p.span.SetAddr("careof", careOf)
	}
	if !dst.IsUnspecified() {
		p.span.SetAttr("via", "fa")
	}
	if p.req.Simultaneous() {
		p.span.SetAttr("simultaneous", "true")
	}
}

// pend starts the host's own registration: whatever was in flight is
// cancelled (before the new span opens, so the two are siblings) and the
// registration socket is rebound to bind — the care-of or home address —
// so requests go out in the local role and replies come straight back,
// never through the tunnel.
func (m *MobileHost) pend(bind ip.Addr, lifetime time.Duration, careOf, dst ip.Addr, done func(error)) {
	m.cancelPending()
	var err error
	if m.regSock == nil {
		m.regSock, err = m.ts.UDP(bind, Port, func(d transport.Datagram) { m.reply(m.pending, d) })
	} else {
		err = m.regSock.Rebind(bind)
	}
	m.newRequest(&m.own, 0, lifetime, careOf, dst, done)
	m.pending = &m.own
	m.begin(m.pending, err)
}

// begin transmits p's first request, or ends p if its socket did not bind.
func (m *MobileHost) begin(p *regAttempt, bindErr error) {
	if bindErr != nil {
		m.abort(p, "unbound", bindErr)
		return
	}
	m.send(p)
}

func (m *MobileHost) cancelPending() {
	m.reregT.Stop()
	if m.pending != nil {
		m.closeAttempt(m.pending, "cancelled")
	}
}

// closeAttempt ends p with result on its span: the retry timer stops, and
// an additional binding's socket closes or the host's own registration is
// no longer pending. Every path out of an exchange comes through here.
func (m *MobileHost) closeAttempt(p *regAttempt, result string) {
	if p.side == nil {
		m.regTimer.Stop()
		m.pending = nil
	} else {
		p.side.timer.Stop()
		if p.side.sock != nil {
			p.side.sock.Close()
		}
	}
	p.span.SetAttr("result", result)
	p.span.Done()
}

// abort closes p and reports err to whoever started it.
func (m *MobileHost) abort(p *regAttempt, result string, err error) {
	done := p.done // p may be reused by what done starts
	m.closeAttempt(p, result)
	if done != nil {
		done(err)
	}
}

// send transmits p's request, and again every regRetryInterval until
// closeAttempt stops the timer or the retry budget runs out.
func (m *MobileHost) send(p *regAttempt) {
	sock, timer := m.regSock, &m.regTimer
	if p.side != nil {
		sock, timer = p.side.sock, &p.side.timer
	}
	p.tries++
	if p.tries > regMaxTries {
		m.stats.RegTimeouts++
		m.trace(kRegTimeout, trace.Operands{N: p.req.ID})
		m.abort(p, "timeout", ErrRegistrationTimeout)
		return
	}
	// Every transmission carries a fresh identification: if a reply is
	// lost, the retransmission must not look like a replay to the home
	// agent's identification check.
	if p.tries > 1 {
		m.regID++
		p.req.ID = m.regID
		m.stats.RegRetransmits++
	} else {
		p.firstSent = m.host.Loop().Now()
	}
	m.stats.RegRequestsSent++
	kind, suffix := kRegRequestSent, ""
	if p.req.IsDeregistration() {
		kind = kRegDeregSent
	} else if p.req.Simultaneous() {
		suffix = " simultaneous=true"
	}
	p.span.SetUint("tries", uint64(p.tries))
	m.trace(kind, trace.Operands{A: p.req.CareOf, N: p.req.ID, I: p.tries, T: suffix})
	dst := p.dst
	if dst.IsUnspecified() {
		dst = m.cfg.HomeAgent
	}
	sock.SendTo(dst, Port, p.req.Marshal())
	*timer = m.host.Loop().Schedule(regRetryInterval, p.retry)
}

// reply handles a datagram on the socket of exchange p (nil when the
// host's own socket hears one with nothing pending).
func (m *MobileHost) reply(p *regAttempt, d transport.Datagram) {
	var reply RegReply
	if typ, err := MessageType(d.Payload); err != nil || typ != TypeRegReply || UnmarshalRegReply(&reply, d.Payload) != nil {
		m.stats.DropMalformed++
		return
	}
	if p == nil || reply.ID != p.req.ID {
		m.stats.DropStaleReply++
		return
	}
	m.trace(kRegReplyReceived, trace.Operands{I: int32(reply.Code), J: int32(reply.Lifetime), N: reply.ID})
	careOf, done := p.req.CareOf, p.done // a callback below may start the next pend on p
	switch {
	case !reply.Accepted():
		m.stats.RegDenied++
		m.abort(p, CodeString(reply.Code), fmt.Errorf("%w: %s", ErrRegistrationDenied, CodeString(reply.Code)))
		return
	case p.side != nil:
		// An additional binding moves none of the host's own state.
		m.closeAttempt(p, "accepted")
	case p.req.IsDeregistration():
		m.registered = false
		m.stats.Deregistrations++
		m.closeAttempt(p, "deregistered")
		if m.OnDeregistered != nil {
			m.OnDeregistered()
		}
	default:
		wasRenewal := m.registered
		m.registered = true
		m.stats.Registrations++
		m.regLatency.Observe(m.host.Loop().Now().Sub(p.firstSent))
		if wasRenewal {
			m.stats.Renewals++
		}
		// The accepted binding re-arms the tunnel: mark the instant the
		// datapath to the new care-of address is live.
		ts := m.cfg.Tracer.StartChild(p.span, m.host.Name(), kSpanTunnelUp)
		ts.SetAddr("careof", careOf)
		ts.Done()
		m.closeAttempt(p, "accepted")
		m.scheduleRenewal(time.Duration(reply.Lifetime) * time.Second)
		if m.OnRegistered != nil {
			m.OnRegistered(careOf)
		}
	}
	if done != nil {
		done(nil)
	}
}

// scheduleRenewal re-registers at three quarters of the granted lifetime.
func (m *MobileHost) scheduleRenewal(granted time.Duration) {
	m.reregT.Stop()
	if granted == 0 {
		return
	}
	if m.renewFn == nil {
		m.renewFn = m.renew
	}
	m.reregT = m.host.Loop().Schedule(granted*3/4, m.renewFn)
}

func (m *MobileHost) renew() {
	switch {
	case !m.registered || m.atHome:
	case !m.faAddr.IsUnspecified():
		m.trace(kRegRenew, trace.Operands{S: "via-fa", A: m.faAddr})
		m.registerViaFA(m.faAddr, nil)
	case !m.careOf.IsUnspecified():
		m.trace(kRegRenew, trace.Operands{S: "careof", A: m.careOf})
		m.register(m.careOf, m.cfg.Lifetime, nil)
	}
}

// --- Policy probing (dynamic Mobile Policy Table updates) ---------------

// ProbeTriangle tests whether the triangle-route optimization works toward
// ch from the current foreign network — the paper's "failed attempts to
// ping a correspondent host" detection — and caches the result in the
// Mobile Policy Table: PolicyTriangle on success, PolicyTunnel on failure.
func (m *MobileHost) ProbeTriangle(ch ip.Addr, timeout time.Duration, done func(ok bool)) {
	prior := m.policy.Lookup(ch)
	m.policy.SetHost(ch, PolicyTriangle)
	m.trace(kProbeStart, trace.Operands{A: ch})
	m.host.ICMP().Ping(ch, m.cfg.HomeAddr, 8, timeout, func(r stack.PingResult) {
		ok := !r.TimedOut && !r.Unreachable
		if ok {
			m.policy.SetHost(ch, PolicyTriangle)
		} else {
			// Revert to the safe policy and remember it.
			if prior == PolicyTriangle {
				prior = PolicyTunnel
			}
			m.policy.SetHost(ch, PolicyTunnel)
		}
		m.trace(kProbeDone, trace.Operands{A: ch, S: strconv.FormatBool(ok)})
		if done != nil {
			done(ok)
		}
	})
}

// --- The route-lookup override -------------------------------------------

// routeLookup is the paper's modified ip_rt_route(). Packets whose source
// is bound to a specific local address are outside the scope of mobile IP
// and follow the unchanged routing table. Packets with an unspecified
// source, or bound to the home address, are subject to mobile IP: at home
// they route normally (the home address is just the interface address);
// away, the Mobile Policy Table picks tunnel, triangle, encapsulated-
// direct, or plain-direct treatment.
func (m *MobileHost) routeLookup(dst, boundSrc ip.Addr) (stack.RouteDecision, error) {
	if !boundSrc.IsUnspecified() && boundSrc != m.cfg.HomeAddr {
		// Outside the scope of mobile IP (local role, VIF outer packets,
		// mobile-aware applications).
		return m.host.DefaultRouteLookup(dst, boundSrc)
	}
	if dst.IsMulticast() || m.host.IsDirectedBroadcast(dst) {
		// Multicast is joined via the visited network — the local role
		// (Section 5.2) — and a directed broadcast is for a subnet the
		// host is on: neither is tunneled through the home agent.
		return m.host.TableRoute(dst, boundSrc)
	}
	if m.host.IsLocalUnicast(dst) {
		return m.host.LocalRoute(dst, boundSrc), nil
	}
	// dst is no local unicast address: every lookup below is the table
	// half, and none asks IsLocalUnicast again.
	if !m.faAddr.IsUnspecified() && m.active != nil {
		// Foreign-agent mode: the agent is the default router and the
		// mobile host's only connection; packets go out bare with the
		// home source, and the agent handles the rest.
		return stack.RouteDecision{Iface: m.active.ifc, Src: m.cfg.HomeAddr, NextHop: m.faAddr}, nil
	}
	if m.atHome || m.careOf.IsUnspecified() {
		dec, err := m.host.TableRoute(dst, boundSrc)
		if err != nil {
			return dec, err
		}
		if boundSrc.IsUnspecified() && m.atHome {
			dec.Src = m.cfg.HomeAddr
		}
		return dec, nil
	}
	switch m.policy.Lookup(dst) {
	case PolicyTriangle:
		dec, err := m.host.TableRoute(dst, ip.Unspecified)
		if err != nil {
			return dec, err
		}
		dec.Src = m.cfg.HomeAddr
		return dec, nil
	case PolicyEncapDirect:
		return stack.RouteDecision{Iface: m.tunDirect.Iface(), Src: m.cfg.HomeAddr, NextHop: dst}, nil
	case PolicyDirect:
		return m.host.TableRoute(dst, ip.Unspecified)
	default: // PolicyTunnel
		return stack.RouteDecision{Iface: m.tunHA.Iface(), Src: m.cfg.HomeAddr, NextHop: dst}, nil
	}
}

// MakeSmartCorrespondent equips an ordinary host with transparent IP-in-IP
// decapsulation (as "recent Linux development kernels" have, per the
// paper), making the encapsulated-direct optimization usable toward it.
func MakeSmartCorrespondent(h *stack.Host) *tunnel.Endpoint {
	primary := func() (ip.Addr, bool) {
		for _, ifc := range h.Ifaces() {
			if !ifc.IsVirtual() && !ifc.Addr().IsUnspecified() {
				return ifc.Addr(), true
			}
		}
		return ip.Addr{}, false
	}
	return tunnel.New(h, "tunl0", primary, func(*ip.Packet) (ip.Addr, bool) { return ip.Addr{}, false })
}

// jit adds ~8% of calibrated variance to a charged software delay, so
// measured phase durations have realistic (non-degenerate) deviations.
func (m *MobileHost) jit(d time.Duration) time.Duration {
	return m.host.Loop().Jitter(d, d/12)
}

// AddSimultaneousBinding registers an additional care-of address with the
// simultaneous-bindings flag, keeping existing bindings active; the home
// agent then duplicates tunneled packets to every registered address. Used
// with overlapping coverage for smooth handoffs: prepare the new interface,
// add its address as a simultaneous binding, and only then retire the old
// one (a plain registration for the new address drops the extras again).
// The address must already be configured on one of the host's interfaces
// so the reply can arrive.
func (m *MobileHost) AddSimultaneousBinding(careOf ip.Addr, done func(error)) {
	p := &regAttempt{side: &sideExchange{}}
	m.newRequest(p, FlagSimultaneous, m.cfg.Lifetime, careOf, ip.Addr{}, done)
	var err error
	p.side.sock, err = m.ts.UDP(careOf, Port, func(d transport.Datagram) { m.reply(p, d) })
	m.begin(p, err)
}
