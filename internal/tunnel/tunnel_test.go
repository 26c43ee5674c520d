package tunnel

import (
	"testing"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/stack"
)

// env is two hosts on opposite subnets joined by a router, with a tunnel
// endpoint on each host.
type env struct {
	loop     *sim.Loop
	mh, ha   *stack.Host
	mhT, haT *Endpoint
	mhAddr   ip.Addr
	haAddr   ip.Addr
}

func buildEnv(t *testing.T) *env {
	t.Helper()
	loop := sim.New(1)
	netA := link.NewNetwork(loop, "foreign", link.Ethernet())
	netB := link.NewNetwork(loop, "home", link.Ethernet())

	mk := func(name, cidr string, n *link.Network) (*stack.Host, *stack.Iface) {
		h := stack.NewHost(loop, name, stack.Config{})
		d := link.NewDevice(loop, name+"-eth0", 0, 0)
		d.Attach(n)
		d.BringUp(nil)
		pfx := ip.MustParsePrefix(cidr)
		addr := ip.MustParseAddr(cidr[:len(cidr)-3])
		ifc := h.AddIface("eth0", d, addr, pfx, stack.IfaceOpts{})
		h.ConnectRoute(ifc)
		return h, ifc
	}

	mh, mhIfc := mk("mh", "10.0.0.2/24", netA)
	ha, haIfc := mk("ha", "10.0.1.2/24", netB)
	router, rA := mk("router", "10.0.0.1/24", netA)
	rdB := link.NewDevice(loop, "r-eth1", 0, 0)
	rdB.Attach(netB)
	rdB.BringUp(nil)
	rB := router.AddIface("eth1", rdB, ip.MustParseAddr("10.0.1.1"), ip.MustParsePrefix("10.0.1.0/24"), stack.IfaceOpts{})
	router.ConnectRoute(rB)
	_ = rA
	router.SetForwarding(true)
	mh.AddDefaultRoute(ip.MustParseAddr("10.0.0.1"), mhIfc)
	ha.AddDefaultRoute(ip.MustParseAddr("10.0.1.1"), haIfc)
	loop.RunFor(0)

	e := &env{
		loop:   loop,
		mh:     mh,
		ha:     ha,
		mhAddr: ip.MustParseAddr("10.0.0.2"),
		haAddr: ip.MustParseAddr("10.0.1.2"),
	}
	e.mhT = New(mh, "vif0",
		func() (ip.Addr, bool) { return e.mhAddr, true },
		func(*ip.Packet) (ip.Addr, bool) { return e.haAddr, true })
	e.haT = New(ha, "vif0",
		func() (ip.Addr, bool) { return e.haAddr, true },
		func(*ip.Packet) (ip.Addr, bool) { return e.mhAddr, true })
	return e
}

// routeViaVIF points a destination prefix at the host's VIF.
func routeViaVIF(h *stack.Host, e *Endpoint, cidr string) {
	h.Routes().Add(stack.Route{Dst: ip.MustParsePrefix(cidr), Iface: e.Iface()})
}

func TestTunnelDelivery(t *testing.T) {
	e := buildEnv(t)
	// MH tunnels everything for 36.0.0.0/8 to the HA; the HA accepts the
	// inner packet locally (it is addressed to the HA itself here).
	routeViaVIF(e.mh, e.mhT, "36.0.0.0/8")
	e.ha.AddLocalAddr(ip.MustParseAddr("36.135.0.1"))

	var got *ip.Packet
	var gotIfc *stack.Iface
	e.ha.RegisterHandler(ip.ProtoUDP, func(ifc *stack.Iface, pkt *ip.Packet) { got, gotIfc = pkt.Clone(), ifc })

	inner := &ip.Packet{
		Header:  ip.Header{Protocol: ip.ProtoUDP, Src: ip.MustParseAddr("36.135.0.7"), Dst: ip.MustParseAddr("36.135.0.1")},
		Payload: []byte("tunneled"),
	}
	if err := e.mh.Output(inner); err != nil {
		t.Fatal(err)
	}
	e.loop.RunFor(time.Second)

	if got == nil {
		t.Fatal("inner packet not delivered")
	}
	if string(got.Payload) != "tunneled" || got.Src != inner.Src || got.Dst != inner.Dst {
		t.Fatalf("inner packet mangled: %v", got)
	}
	if gotIfc != e.haT.Iface() {
		t.Fatalf("delivered on %s, want the VIF", gotIfc.Name())
	}
	if e.mhT.Stats().Encapsulated != 1 || e.haT.Stats().Decapsulated != 1 {
		t.Fatalf("stats: %+v %+v", e.mhT.Stats(), e.haT.Stats())
	}
}

func TestTunnelBidirectional(t *testing.T) {
	e := buildEnv(t)
	routeViaVIF(e.mh, e.mhT, "36.0.0.0/8")
	routeViaVIF(e.ha, e.haT, "36.135.0.7/32")
	e.mh.AddLocalAddr(ip.MustParseAddr("36.135.0.7"))
	e.ha.AddLocalAddr(ip.MustParseAddr("36.135.0.1"))

	var atMH, atHA int
	e.mh.RegisterHandler(ip.ProtoUDP, func(_ *stack.Iface, _ *ip.Packet) { atMH++ })
	e.ha.RegisterHandler(ip.ProtoUDP, func(_ *stack.Iface, _ *ip.Packet) { atHA++ })

	e.mh.Output(&ip.Packet{Header: ip.Header{Protocol: ip.ProtoUDP, Src: ip.MustParseAddr("36.135.0.7"), Dst: ip.MustParseAddr("36.135.0.1")}, Payload: []byte("up")})
	e.ha.Output(&ip.Packet{Header: ip.Header{Protocol: ip.ProtoUDP, Src: ip.MustParseAddr("36.135.0.1"), Dst: ip.MustParseAddr("36.135.0.7")}, Payload: []byte("down")})
	e.loop.RunFor(time.Second)
	if atMH != 1 || atHA != 1 {
		t.Fatalf("delivery mh=%d ha=%d", atMH, atHA)
	}
}

func TestDecapForwardsInnerForOtherHost(t *testing.T) {
	// Home-agent role: the inner packet is for a correspondent, not the
	// agent itself; with forwarding enabled it must continue on.
	e := buildEnv(t)
	// Tunnel via the route-lookup override, the paper's mechanism: a table
	// route for 10.0.1.0/24 through the VIF would also capture the outer
	// packets addressed to the home agent and loop them back into the
	// tunnel. The override instead keys on the unbound source.
	def := e.mh.DefaultRouteLookup
	e.mh.SetRouteLookup(func(dst, boundSrc ip.Addr) (stack.RouteDecision, error) {
		if boundSrc.IsUnspecified() || boundSrc == ip.MustParseAddr("36.135.0.7") {
			return stack.RouteDecision{Iface: e.mhT.Iface(), Src: ip.MustParseAddr("36.135.0.7"), NextHop: dst}, nil
		}
		return def(dst, boundSrc)
	})
	e.ha.SetForwarding(true)

	// Third host on the HA's subnet is the correspondent.
	chNet := e.ha.IfaceByName("eth0").Device().Network()
	ch := stack.NewHost(e.loop, "ch", stack.Config{})
	chd := link.NewDevice(e.loop, "ch-eth0", 0, 0)
	chd.Attach(chNet)
	chd.BringUp(nil)
	chIfc := ch.AddIface("eth0", chd, ip.MustParseAddr("10.0.1.3"), ip.MustParsePrefix("10.0.1.0/24"), stack.IfaceOpts{})
	ch.ConnectRoute(chIfc)
	e.loop.RunFor(0)

	var got *ip.Packet
	ch.RegisterHandler(ip.ProtoUDP, func(_ *stack.Iface, pkt *ip.Packet) { got = pkt.Clone() })

	e.mh.Output(&ip.Packet{
		Header:  ip.Header{Protocol: ip.ProtoUDP, Src: ip.MustParseAddr("36.135.0.7"), Dst: ip.MustParseAddr("10.0.1.3")},
		Payload: []byte("to ch"),
	})
	e.loop.RunFor(time.Second)
	if got == nil {
		t.Fatal("decapsulated packet not forwarded to correspondent")
	}
	if got.Src != ip.MustParseAddr("36.135.0.7") {
		t.Fatalf("correspondent sees source %v, want the home address", got.Src)
	}
}

func TestEncapsulationOverheadOnWire(t *testing.T) {
	e := buildEnv(t)
	routeViaVIF(e.mh, e.mhT, "36.0.0.0/8")
	e.ha.AddLocalAddr(ip.MustParseAddr("36.135.0.1"))

	// Observe the outer packet ahead of the endpoint's receiver, in the
	// host's decapsulation slot.
	var outerLen int
	e.ha.SetDecapsulator(func(outer *ip.Packet) {
		outerLen = outer.Len()
		e.haT.receive(outer)
	})
	inner := &ip.Packet{
		Header:  ip.Header{Protocol: ip.ProtoUDP, Src: ip.MustParseAddr("36.135.0.7"), Dst: ip.MustParseAddr("36.135.0.1")},
		Payload: make([]byte, 100),
	}
	innerLen := inner.Len()
	e.mh.Output(inner)
	e.loop.RunFor(time.Second)
	if outerLen != innerLen+ip.HeaderLen {
		t.Fatalf("wire overhead %d bytes, want the paper's %d", outerLen-innerLen, ip.HeaderLen)
	}
}

// TestLastEndpointDecapsulates: a host has one decapsulation slot, and the
// last endpoint made on it fills it, so inbound tunneled traffic is
// attributed to that endpoint's VIF and the earlier one's counts none.
func TestLastEndpointDecapsulates(t *testing.T) {
	e := buildEnv(t)
	routeViaVIF(e.mh, e.mhT, "36.0.0.0/8")
	e.ha.AddLocalAddr(ip.MustParseAddr("36.135.0.1"))
	last := New(e.ha, "vif1",
		func() (ip.Addr, bool) { return e.haAddr, true },
		func(*ip.Packet) (ip.Addr, bool) { return e.mhAddr, true })
	e.mh.Output(&ip.Packet{
		Header:  ip.Header{Protocol: ip.ProtoUDP, Src: ip.MustParseAddr("36.135.0.7"), Dst: ip.MustParseAddr("36.135.0.1")},
		Payload: []byte("tunneled"),
	})
	e.loop.RunFor(time.Second)
	if first, last := e.haT.Stats().Decapsulated, last.Stats().Decapsulated; first != 0 || last != 1 {
		t.Fatalf("decapsulated: first endpoint %d, last %d; want 0 and 1", first, last)
	}
}

func TestDropNoDst(t *testing.T) {
	e := buildEnv(t)
	ep := New(e.mh, "vif1",
		func() (ip.Addr, bool) { return e.mhAddr, true },
		func(*ip.Packet) (ip.Addr, bool) { return ip.Addr{}, false })
	routeViaVIF(e.mh, ep, "37.0.0.0/8")
	e.mh.Output(&ip.Packet{Header: ip.Header{Protocol: ip.ProtoUDP, Dst: ip.MustParseAddr("37.1.1.1")}})
	e.loop.RunFor(time.Second)
	if ep.Stats().DropNoDst != 1 {
		t.Fatalf("DropNoDst = %d", ep.Stats().DropNoDst)
	}
}

func TestDropNoSrcWhenNoConnectivity(t *testing.T) {
	e := buildEnv(t)
	ep := New(e.mh, "vif1",
		func() (ip.Addr, bool) { return ip.Addr{}, false }, // no care-of address
		func(*ip.Packet) (ip.Addr, bool) { return e.haAddr, true })
	routeViaVIF(e.mh, ep, "37.0.0.0/8")
	e.mh.Output(&ip.Packet{Header: ip.Header{Protocol: ip.ProtoUDP, Dst: ip.MustParseAddr("37.1.1.1")}})
	e.loop.RunFor(time.Second)
	if ep.Stats().DropNoSrc != 1 {
		t.Fatalf("DropNoSrc = %d", ep.Stats().DropNoSrc)
	}
}

func TestPeerFilter(t *testing.T) {
	e := buildEnv(t)
	routeViaVIF(e.mh, e.mhT, "36.0.0.0/8")
	e.ha.AddLocalAddr(ip.MustParseAddr("36.135.0.1"))
	e.haT.AllowPeer = func(outer ip.Addr) bool { return outer == ip.MustParseAddr("9.9.9.9") }

	delivered := 0
	e.ha.RegisterHandler(ip.ProtoUDP, func(_ *stack.Iface, _ *ip.Packet) { delivered++ })
	e.mh.Output(&ip.Packet{Header: ip.Header{Protocol: ip.ProtoUDP, Src: ip.MustParseAddr("36.135.0.7"), Dst: ip.MustParseAddr("36.135.0.1")}, Payload: []byte("x")})
	e.loop.RunFor(time.Second)
	if delivered != 0 {
		t.Fatal("filtered peer's packet was delivered")
	}
	if e.haT.Stats().DropPeer != 1 {
		t.Fatalf("DropPeer = %d", e.haT.Stats().DropPeer)
	}
}

func TestCorruptInnerDropped(t *testing.T) {
	e := buildEnv(t)
	// Hand-deliver a protocol-4 packet whose payload is garbage.
	bogus := &ip.Packet{
		Header:  ip.Header{TTL: 64, Protocol: ip.ProtoIPIP, Src: e.mhAddr, Dst: e.haAddr},
		Payload: []byte{1, 2, 3, 4},
	}
	e.ha.Input(e.ha.IfaceByName("eth0"), bogus)
	e.loop.RunFor(time.Second)
	if e.haT.Stats().DropBadInner != 1 {
		t.Fatalf("DropBadInner = %d", e.haT.Stats().DropBadInner)
	}
}

// TestNoEncapsulationLoop verifies the paper's loop-prevention rule: the
// outer packet's bound source keeps it off the VIF even when the VIF route
// would match its destination.
func TestNoEncapsulationLoop(t *testing.T) {
	e := buildEnv(t)
	// Deliberately hostile routing: the tunnel destination itself is
	// routed via the VIF for unbound sources.
	def := e.mh.DefaultRouteLookup
	e.mh.SetRouteLookup(func(dst, boundSrc ip.Addr) (stack.RouteDecision, error) {
		if boundSrc.IsUnspecified() {
			return stack.RouteDecision{Iface: e.mhT.Iface(), Src: ip.MustParseAddr("36.135.0.7"), NextHop: dst}, nil
		}
		return def(dst, boundSrc)
	})
	e.ha.AddLocalAddr(ip.MustParseAddr("36.135.0.1"))
	delivered := 0
	e.ha.RegisterHandler(ip.ProtoUDP, func(_ *stack.Iface, _ *ip.Packet) { delivered++ })

	e.mh.Output(&ip.Packet{Header: ip.Header{Protocol: ip.ProtoUDP, Dst: ip.MustParseAddr("36.135.0.1")}, Payload: []byte("once")})
	e.loop.RunFor(time.Second)
	if enc := e.mhT.Stats().Encapsulated; enc != 1 {
		t.Fatalf("encapsulated %d times, want exactly 1", enc)
	}
	if delivered != 1 {
		t.Fatalf("delivered %d", delivered)
	}
}
