package stack

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"mosquitonet/internal/arena"
	"mosquitonet/internal/arp"
	"mosquitonet/internal/bufpool"
	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/metrics"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/trace"
)

// Config tunes a host's per-packet software costs. The paper's numbers are
// from 40 MHz 486 subnotebooks and a Pentium 90 router, where protocol
// processing is measurable in fractions of a millisecond; the testbed
// package calibrates these so the registration time-line lands on the
// measured values.
type Config struct {
	InputDelay   time.Duration // receive-path processing per packet
	OutputDelay  time.Duration // send-path processing per packet
	ForwardDelay time.Duration // extra cost to forward (routers)
}

// Stats counts a host's IP-layer activity.
type Stats struct {
	Sent          uint64
	Received      uint64
	Delivered     uint64
	Forwarded     uint64
	DropNoRoute   uint64
	DropTTL       uint64
	DropFilter    uint64
	DropBadPacket uint64
	DropNotLocal  uint64
	DropNoHandler uint64
	DropMTU       uint64 // DF packets exceeding an interface MTU
	FragmentsSent uint64
	RedirectsSent uint64
	RedirectsRcvd uint64
}

// ProtocolHandler consumes a locally delivered packet. pkt is lent: it and
// its payload are valid until the handler returns, when the stack releases
// the packet and its buffer is recycled. A handler that keeps the packet, or
// any window into its payload, keeps pkt.Clone() (or its own copy of the
// bytes) instead; the pointer it was handed reads as a zeroed header
// afterwards, and soon as some other packet.
//
//mnet:ownership borrows pkt
type ProtocolHandler func(ifc *Iface, pkt *ip.Packet)

// ErrNoRoute is returned when no route matches a destination.
var ErrNoRoute = errors.New("stack: no route to host")

// noRouteError is ErrNoRoute for one destination. A routeless host gets one
// for every packet it tries to send — every retransmission of a blackout —
// and almost nobody reads it, so it carries the address and renders
// "stack: no route to host: <dst>" only when asked.
type noRouteError struct{ dst ip.Addr }

func (e noRouteError) Error() string { return ErrNoRoute.Error() + ": " + e.dst.String() }
func (e noRouteError) Unwrap() error { return ErrNoRoute }

// Host is a simulated IP host: interfaces, routing table, input/output/
// forwarding machinery, and protocol handlers.
type Host struct {
	name string
	loop *sim.Loop
	cfg  Config

	// pkts, bufs and hops are the loop's packet pool, wire-buffer free
	// lists and hop records, where the host's packets, frames and hops come
	// from and go back to.
	pkts *ip.Pool
	bufs *bufpool.Lists
	hops *sim.Records[hop]

	ifaces []*Iface
	lo     *Iface
	routes RouteTable

	// The datapath's two slots (see datapath.go): the paper's single
	// ip_rt_route() override (nil means DefaultRouteLookup) and the IP-in-IP
	// receiver, which takes its packet.
	routeOverride func(dst, boundSrc ip.Addr) (RouteDecision, error)
	//mnet:ownership takes pkt
	decap func(pkt *ip.Packet)

	// handlers holds the protocol handlers, one entry a protocol: the
	// transport registers two (UDP, TCP), so a scan beats a hash.
	handlers   []protoHandler
	forwarding bool

	// localAddrs holds addresses the host accepts beyond its interface
	// addresses, each once. A mobile host away from home keeps its home
	// address here: tunneled packets arrive addressed to the care-of
	// address, but the decapsulated inner packet is addressed to the home
	// address. No host the simulator builds holds more than that one, so
	// it is a slice scanned on every Input, not a map.
	localAddrs []ip.Addr

	// groups holds joined multicast groups. Group traffic is link-scoped:
	// it rides link broadcast on the joined interface and routers do not
	// forward it — the paper's "join multicast groups via the foreign
	// network" is a local-role activity.
	groups map[ip.Addr]bool

	// icmp and reasm are built on first use (ICMP and Reassembler): most
	// hosts of a fleet never send or receive an ICMP datagram, and never
	// receive a fragment.
	icmp       *ICMP
	reasm      *ip.Reassembler
	sweepArmed bool
	stats      Stats
	idSeq      uint16
	pktlog     *metrics.PacketLog

	// tracer is the loop's span tracer, resolved lazily because hosts may
	// be built before trace.New associates one with the loop. Drop spans
	// are recorded when a tracer exists.
	tracer *trace.Tracer
}

// reassemblySweepInterval drives partial-fragment expiry; with MaxAge 2
// this gives incomplete packets 15-30 s, per the classic reassembly
// timeout.
const reassemblySweepInterval = 15 * time.Second

// sweepLaneGranularity buckets sweep timers across hosts: on a fleet every
// host holding partial fragments sweeps on the same cadence, and a 100ms
// rounding is immaterial against a 15s interval and 15-30s expiry window.
const sweepLaneGranularity = 100 * time.Millisecond

// slabs is where a loop's Host and Iface structs come from: a 100k-host
// fleet allocates thousands of chunks instead of hundreds of thousands of
// individual objects, which both speeds construction and shrinks GC
// bookkeeping per host. It is an attachment of the loop (sim.Loop.Local),
// so a chunk holds the objects of one simulation only and dies with it.
// It also carries the loop's packet pool, wire-buffer free lists and hop
// records, found once for every host the loop builds.
type slabs struct {
	hosts  *arena.Slab[Host]
	ifaces *arena.Slab[Iface]
	pkts   *ip.Pool
	bufs   *bufpool.Lists
	hops   *sim.Records[hop]
}

type slabsKey struct{}

// slabsOf returns loop's slabs, attaching them on first use.
func slabsOf(loop *sim.Loop) *slabs {
	if s, ok := loop.Local(slabsKey{}).(*slabs); ok {
		return s
	}
	s := &slabs{hosts: arena.NewSlab[Host](64), ifaces: arena.NewSlab[Iface](128), pkts: ip.PoolFor(loop), bufs: bufpool.For(loop), hops: sim.RecordsOf[hop](loop)}
	loop.SetLocal(slabsKey{}, s)
	return s
}

// The loopback interface's address and prefix, parsed once for every host.
var (
	loopbackAddr   = ip.MustParseAddr("127.0.0.1")
	loopbackPrefix = ip.MustParsePrefix("127.0.0.0/8")
)

// NewHost creates a host with a loopback interface and the default route
// lookup installed.
func NewHost(loop *sim.Loop, name string, cfg Config) *Host {
	sl := slabsOf(loop)
	h := sl.hosts.Get()
	h.name = name
	h.loop = loop
	h.cfg = cfg
	h.pkts, h.bufs, h.hops = sl.pkts, sl.bufs, sl.hops
	h.lo = sl.ifaces.Get()
	*h.lo = Iface{host: h, name: "lo", addr: loopbackAddr, prefix: loopbackPrefix}
	h.lo.transmit = func(pkt *ip.Packet, _ ip.Addr) { h.Input(h.lo, pkt) }
	h.ifaces = append(h.ifaces, h.lo)
	h.pktlog = metrics.PacketsFor(loop)
	metrics.Add(metrics.For(loop), h, (*Host).collect)
	return h
}

// spanTracer returns the loop's tracer, caching the first successful
// lookup. Hosts are often built before trace.New runs, so NewHost cannot
// resolve it eagerly; a miss retries on the next call (a scan of the loop's
// few attachments, and only on already-slow paths like drops).
func (h *Host) spanTracer() *trace.Tracer {
	if h.tracer == nil {
		h.tracer = trace.For(h.loop)
	}
	return h.tracer
}

// collect emits the host's rows from its counters, which stay the source of
// truth. NewHost puts the host on the loop's registry's list of hosts, so at
// fleet scale the registry costs a pointer a host.
func (h *Host) collect(c *metrics.Collection) {
	host := metrics.L("host", h.name)
	c.Counter("stack.host.sent", h.stats.Sent, host)
	c.Counter("stack.host.received", h.stats.Received, host)
	c.Counter("stack.host.delivered", h.stats.Delivered, host)
	c.Counter("stack.host.forwarded", h.stats.Forwarded, host)
	for _, d := range drops {
		c.Counter(d.row, *d.counter(&h.stats), host)
	}
	c.Counter("stack.host.fragments_sent", h.stats.FragmentsSent, host)
	c.Counter("stack.host.redirects_sent", h.stats.RedirectsSent, host)
	c.Counter("stack.host.redirects_rcvd", h.stats.RedirectsRcvd, host)
	var icmp ICMP // a host with no endpoint yet reads zero
	if h.icmp != nil {
		icmp = *h.icmp
	}
	c.Counter("stack.icmp.sent", icmp.Sent, host)
	c.Counter("stack.icmp.received", icmp.Received, host)
	c.Counter("stack.icmp.echo_requests", icmp.EchoRequests, host)
}

// armSweep keeps a reassembly-expiry sweep scheduled while partial
// fragments are held, and lets the timer die otherwise so an idle host
// leaves the event queue empty.
func (h *Host) armSweep() {
	if h.sweepArmed {
		return
	}
	h.sweepArmed = true
	h.loop.Lane(sweepLaneGranularity).Schedule(reassemblySweepInterval, func() {
		h.sweepArmed = false
		h.reasm.Sweep()
		if h.reasm.Pending() > 0 {
			h.armSweep()
		}
	})
}

// Reassembler returns the host's fragment-reassembly buffer, building it on
// first use: the first fragment to arrive, or the first caller.
func (h *Host) Reassembler() *ip.Reassembler {
	if h.reasm == nil {
		h.reasm = ip.NewReassembler()
	}
	return h.reasm
}

// Name returns the host name.
func (h *Host) Name() string { return h.name }

// Loop returns the simulation loop the host runs on.
func (h *Host) Loop() *sim.Loop { return h.loop }

// Packets returns the packet pool of the host's loop: what a protocol above
// the stack builds its outgoing packets from (ip.NewUDPPacket, ...).
func (h *Host) Packets() *ip.Pool { return h.pkts }

// Stats returns a snapshot of the host's counters.
func (h *Host) Stats() Stats { return h.stats }

// Routes returns the host's routing table.
func (h *Host) Routes() *RouteTable { return &h.routes }

// ICMP returns the host's ICMP endpoint (echo, error notifications),
// building it on first use: the first ICMP datagram in or out, or the first
// caller.
func (h *Host) ICMP() *ICMP {
	if h.icmp == nil {
		h.icmp = newICMP(h)
	}
	return h.icmp
}

// Loopback returns the loopback interface.
func (h *Host) Loopback() *Iface { return h.lo }

// SetForwarding enables or disables IP forwarding (routers, home agents).
func (h *Host) SetForwarding(v bool) { h.forwarding = v }

// IfaceOpts configures AddIface.
type IfaceOpts struct {
	// PointToPoint disables ARP; frames go to the link broadcast address
	// and are filtered by IP address on receive, like the STRIP radio
	// driver's Starmode.
	PointToPoint bool
}

// AddIface attaches a device-backed interface with the given address and
// connected prefix, and wires the device's receive path into the stack.
// It does not add routes; call ConnectRoute or add them explicitly.
func (h *Host) AddIface(name string, dev *link.Device, addr ip.Addr, prefix ip.Prefix, opts IfaceOpts) *Iface {
	ifc := slabsOf(h.loop).ifaces.Get()
	*ifc = Iface{
		host:         h,
		name:         name,
		addr:         addr,
		prefix:       prefix.Normalize(),
		dev:          dev,
		pointToPoint: opts.PointToPoint,
	}
	if !opts.PointToPoint {
		ifc.arp = arp.New(h.loop, dev, arp.Config{}, func() []ip.Addr {
			if ifc.addr.IsUnspecified() {
				return nil
			}
			// A window over the interface's own one-element array: the
			// cache asks on every ARP frame heard and keeps nothing.
			ifc.arpAddrs[0] = ifc.addr
			return ifc.arpAddrs[:]
		})
	}
	// The receiver captures only ifc (its host is ifc.host): every device
	// interface of a fleet holds one such closure.
	dev.SetReceiver(func(f *link.Frame) {
		h := ifc.host
		switch f.Type {
		case link.EtherTypeARP:
			if ifc.arp != nil {
				ifc.arp.HandleFrame(f)
			}
		case link.EtherTypeIPv4:
			// The packet is born here, once per hop: a pooled struct owning
			// a pooled copy of the payload, handed to Input.
			pkt, err := ip.UnmarshalPooled(h.pkts, f.Payload)
			if err != nil {
				h.recordDrop(f.Trace, dropBadPacket, metrics.Text("bad packet"))
				return
			}
			pkt.Trace = f.Trace
			h.Input(ifc, pkt)
		}
	})
	h.ifaces = append(h.ifaces, ifc)
	return ifc
}

// AddVirtualIface attaches a software interface whose transmit function
// receives routed packets, and with each the ownership of it (see
// TransmitFunc).
func (h *Host) AddVirtualIface(name string, transmit TransmitFunc) *Iface {
	ifc := slabsOf(h.loop).ifaces.Get()
	*ifc = Iface{host: h, name: name, transmit: transmit}
	h.ifaces = append(h.ifaces, ifc)
	return ifc
}

// Ifaces returns the host's interfaces, loopback first.
func (h *Host) Ifaces() []*Iface { return append([]*Iface(nil), h.ifaces...) }

// IfaceByName returns the named interface, or nil.
func (h *Host) IfaceByName(name string) *Iface {
	for _, i := range h.ifaces {
		if i.name == name {
			return i
		}
	}
	return nil
}

// ConnectRoute adds the directly-connected subnet route for ifc.
func (h *Host) ConnectRoute(ifc *Iface) {
	h.routes.Add(Route{Dst: ifc.prefix, Iface: ifc})
}

// AddDefaultRoute adds 0.0.0.0/0 via gw on ifc.
func (h *Host) AddDefaultRoute(gw ip.Addr, ifc *Iface) {
	h.routes.Add(Route{Dst: ip.Prefix{}, Gateway: gw, Iface: ifc})
}

// AddLocalAddr makes the host accept packets addressed to a beyond its
// interface addresses (the mobile host's home address while away). The
// addresses are a set: adding one twice keeps it once.
func (h *Host) AddLocalAddr(a ip.Addr) {
	if !slices.Contains(h.localAddrs, a) {
		h.localAddrs = append(h.localAddrs, a)
	}
}

// RemoveLocalAddr undoes AddLocalAddr.
func (h *Host) RemoveLocalAddr(a ip.Addr) {
	if i := slices.Index(h.localAddrs, a); i >= 0 {
		h.localAddrs = slices.Delete(h.localAddrs, i, i+1)
	}
}

// JoinGroup subscribes the host to a multicast group; traffic to it is
// accepted and delivered to protocol handlers.
func (h *Host) JoinGroup(g ip.Addr) error {
	if !g.IsMulticast() {
		return fmt.Errorf("stack: %v is not a multicast group", g)
	}
	if h.groups == nil {
		h.groups = make(map[ip.Addr]bool)
	}
	h.groups[g] = true
	return nil
}

// LeaveGroup unsubscribes the host from a multicast group.
func (h *Host) LeaveGroup(g ip.Addr) {
	delete(h.groups, g)
}

// InGroup reports whether the host has joined g.
func (h *Host) InGroup(g ip.Addr) bool { return h.groups[g] }

// IsLocalAddr reports whether a names this host: an own unicast address or
// directed broadcast (MatchLocal), a joined multicast group, or the limited
// broadcast. It is what Input accepts.
func (h *Host) IsLocalAddr(a ip.Addr) bool {
	if a.IsBroadcast() {
		return true
	}
	if a.IsMulticast() {
		return h.groups[a]
	}
	unicast, dbcast := h.MatchLocal(a)
	return unicast || dbcast
}

// MatchLocal reports, from at most one walk over the interfaces, whether a
// is one of the host's own unicast addresses (an interface address, an
// extra local address or loopback), which the route lookups send out the
// loopback, and whether it is the directed broadcast of a subnet one of its
// interfaces is on, which goes on the wire. The limited broadcast and a
// group are neither, and skip the walk.
func (h *Host) MatchLocal(a ip.Addr) (unicast, dbcast bool) {
	if a.IsBroadcast() || a.IsMulticast() {
		return false, false
	}
	if a.IsLoopback() || slices.Contains(h.localAddrs, a) {
		return true, false
	}
	av := a.Uint32()
	for _, i := range h.ifaces {
		if !i.addr.IsUnspecified() && i.addr == a {
			return true, false
		}
		// Only an address with every host bit set can be the directed
		// broadcast; most are not, and are passed without building it.
		if hostBits := ^i.prefix.Mask(); av&hostBits == hostBits &&
			i.dev != nil && i.prefix.Bits > 0 && a == i.prefix.BroadcastAddr() {
			dbcast = true
		}
	}
	return false, dbcast
}

// IsLocalUnicast is MatchLocal's first answer.
func (h *Host) IsLocalUnicast(a ip.Addr) bool {
	unicast, _ := h.MatchLocal(a)
	return unicast
}

// protoHandler is one entry of a host's protocol handler table.
type protoHandler struct {
	proto ip.Protocol
	fn    ProtocolHandler
}

// RegisterHandler installs the protocol handler for locally delivered
// packets of protocol p, replacing any previous handler in place.
func (h *Host) RegisterHandler(p ip.Protocol, fn ProtocolHandler) {
	for i := range h.handlers {
		if h.handlers[i].proto == p {
			h.handlers[i].fn = fn
			return
		}
	}
	h.handlers = append(h.handlers, protoHandler{p, fn})
}

// handler returns protocol p's handler, if one is registered.
func (h *Host) handler(p ip.Protocol) (ProtocolHandler, bool) {
	for _, e := range h.handlers {
		if e.proto == p {
			return e.fn, true
		}
	}
	return nil, false
}

// DefaultRouteLookup is the stock lookup: a destination that is one of the
// host's own unicast addresses (IsLocalUnicast) goes out the loopback
// (LocalRoute), any other takes the longest-prefix match on the routing
// table (TableRoute). A broadcast or multicast destination, a subnet's
// directed broadcast included, is never local: it goes on the wire.
func (h *Host) DefaultRouteLookup(dst, boundSrc ip.Addr) (RouteDecision, error) {
	if h.IsLocalUnicast(dst) {
		return h.LocalRoute(dst, boundSrc), nil
	}
	return h.TableRoute(dst, boundSrc)
}

// LocalRoute is DefaultRouteLookup's local-delivery half: the decision for
// dst, one of the host's own addresses, out the loopback, from boundSrc or
// else from dst itself.
func (h *Host) LocalRoute(dst, boundSrc ip.Addr) RouteDecision {
	src := boundSrc
	if src.IsUnspecified() {
		src = dst
	}
	return RouteDecision{Iface: h.lo, Src: src, NextHop: dst}
}

// TableRoute is DefaultRouteLookup's table half, for a destination already
// known not to be local: longest-prefix match on the routing table, source
// address defaulting to the outgoing interface's.
func (h *Host) TableRoute(dst, boundSrc ip.Addr) (RouteDecision, error) {
	r, ok := h.routes.Lookup(dst)
	if !ok {
		return RouteDecision{}, noRouteError{dst}
	}
	src := boundSrc
	if src.IsUnspecified() {
		src = r.Iface.addr
	}
	nh := r.Gateway
	if nh.IsUnspecified() {
		nh = dst
	}
	return RouteDecision{Iface: r.Iface, Src: src, NextHop: nh}, nil
}

// NextID returns a fresh IP identification value.
func (h *Host) NextID() uint16 {
	h.idSeq++
	return h.idSeq
}
