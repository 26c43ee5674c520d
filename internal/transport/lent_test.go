package transport_test

import (
	"testing"
	"time"

	"mosquitonet/internal/dhcp"
	"mosquitonet/internal/dns"
	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/mip"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/stack"
	"mosquitonet/internal/transport"
)

// TestDatagramPayloadNotRetained runs every in-tree UDP protocol — DHCP,
// DNS, registration at the home agent, relay and departure notification at
// a foreign agent, replies at the mobile host — on stacks that scribble over
// each datagram the moment its handler returns. Every server answers after a
// processing delay, so anything it needs from the datagram later it must
// have copied. The outcomes must be what they are without the scribbling.
func TestDatagramPayloadNotRetained(t *testing.T) {
	loop := sim.New(1)
	home := link.NewNetwork(loop, "home", link.Ethernet())
	foreign := link.NewNetwork(loop, "foreign", link.Ethernet())
	const delay = 2 * time.Millisecond

	up := func(h *stack.Host, name string, n *link.Network, cidr string) *stack.Iface {
		d := link.NewDevice(loop, h.Name()+"-"+name, 0, 0)
		d.Attach(n)
		d.BringUp(nil)
		pfx := ip.MustParsePrefix(cidr)
		ifc := h.AddIface(name, d, ip.MustParseAddr(cidr[:len(cidr)-3]), pfx, stack.IfaceOpts{})
		h.ConnectRoute(ifc)
		return ifc
	}
	mkHost := func(name string, n *link.Network, cidr, gw string) (*transport.Stack, *stack.Iface) {
		h := stack.NewHost(loop, name, stack.Config{})
		ifc := up(h, "eth0", n, cidr)
		h.AddDefaultRoute(ip.MustParseAddr(gw), ifc)
		ts := transport.NewStack(h)
		ts.PoisonLentDatagrams()
		return ts, ifc
	}
	router := stack.NewHost(loop, "router", stack.Config{})
	up(router, "r-home", home, "10.1.0.1/24")
	up(router, "r-foreign", foreign, "10.2.0.1/24")
	router.SetForwarding(true)

	homeAddr, haAddr := ip.MustParseAddr("10.1.0.7"), ip.MustParseAddr("10.1.0.2")
	haTS, haIfc := mkHost("ha", home, "10.1.0.2/24", "10.1.0.1")
	ha, err := mip.NewHomeAgent(haTS, mip.HomeAgentConfig{
		HomeIface: haIfc, HomePrefix: ip.MustParsePrefix("10.1.0.0/24"), ProcessingDelay: delay,
	})
	if err != nil {
		t.Fatal(err)
	}
	dnsTS, _ := mkHost("dns", home, "10.1.0.3/24", "10.1.0.1")
	if _, err := dns.NewServer(dnsTS, dns.ServerConfig{
		Zone: map[string]ip.Addr{"mh.example.edu": homeAddr}, ProcessingDelay: delay,
	}); err != nil {
		t.Fatal(err)
	}
	dhcpTS, _ := mkHost("dhcp", foreign, "10.2.0.2/24", "10.2.0.1")
	if _, err := dhcp.NewServer(dhcpTS, dhcp.ServerConfig{
		Pool: ip.MustParsePrefix("10.2.0.0/24"), FirstHost: 100, LastHost: 150,
		Gateway: ip.MustParseAddr("10.2.0.1"), ProcessingDelay: delay,
	}); err != nil {
		t.Fatal(err)
	}
	faTS, faIfc := mkHost("fa", foreign, "10.2.0.4/24", "10.2.0.1")
	fa, err := mip.NewForeignAgent(faTS, mip.ForeignAgentConfig{Iface: faIfc, ProcessingDelay: delay})
	if err != nil {
		t.Fatal(err)
	}

	mhTS := transport.NewStack(stack.NewHost(loop, "mh", stack.Config{}))
	mhTS.PoisonLentDatagrams()
	mh := mip.NewMobileHost(mhTS, mip.MobileHostConfig{
		HomeAddr: homeAddr, HomePrefix: ip.MustParsePrefix("10.1.0.0/24"), HomeAgent: haAddr, Lifetime: time.Minute,
	})
	dev := link.NewDevice(loop, "mh-eth1", 0, 0)
	dev.Attach(foreign)
	eth1, err := mh.AddInterface("eth1", dev, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	loop.RunFor(0)
	await := func(what string, start func(done func(error))) {
		t.Helper()
		finished := false
		start(func(err error) {
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			finished = true
		})
		loop.RunFor(10 * time.Second)
		if !finished {
			t.Fatalf("%s did not finish", what)
		}
	}

	// DHCP (server and client), then registration (home agent and host).
	await("ConnectForeign", func(done func(error)) { mh.ConnectForeign(eth1, done) })
	careOf := mh.CareOf()
	if b, ok := ha.Binding(homeAddr); !ok || b.CareOf != careOf || careOf != ip.MustParseAddr("10.2.0.100") {
		t.Fatalf("collocated registration: care-of %v, binding %+v", careOf, b)
	}
	// DNS (server and resolver), in the mobile host's local role.
	var resolved ip.Addr
	await("Resolve", func(done func(error)) {
		dns.NewResolver(mhTS, ip.MustParseAddr("10.1.0.3")).Resolve("mh.example.edu",
			func(a ip.Addr, err error) { resolved = a; done(err) })
	})
	if resolved != homeAddr {
		t.Fatalf("resolved %v, want %v", resolved, homeAddr)
	}
	// Foreign-agent mode: request and reply both relayed after the delay.
	mh.Disconnect(eth1)
	await("ConnectViaForeignAgent", func(done func(error)) { mh.ConnectViaForeignAgent(eth1, fa.Addr(), done) })
	if b, ok := ha.Binding(homeAddr); !ok || b.CareOf != fa.Addr() || !fa.HasVisitor(homeAddr) {
		t.Fatalf("relayed registration: binding %+v, visitor %v", b, fa.HasVisitor(homeAddr))
	}
	if st := fa.Stats(); st.RequestsRelayed != 1 || st.RepliesRelayed != 1 || st.DropMalformed+st.DropNotOurs+st.DropUnmatched != 0 {
		t.Fatalf("foreign agent relayed %+v", st)
	}
	// Departure notification, handled after the delay too.
	mh.AnnounceDeparture(fa.Addr(), 30*time.Second)
	loop.RunFor(time.Second)
	if st := fa.Stats(); st.DropMalformed+st.DropUnmatched != 0 {
		t.Fatalf("departure notification dropped: %+v", st)
	}
	if st := ha.Stats(); st.DropMalformed != 0 || st.Denied != 0 || st.Accepted != 2 {
		t.Errorf("home agent: %+v", st)
	}
	if st := mh.Stats(); st.DropMalformed != 0 || st.DropStaleReply != 0 || st.RegRetransmits != 0 || st.Registrations != 2 {
		t.Errorf("mobile host: %+v", st)
	}
}
