package stack

import (
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/sim"
)

// node is a host with one device-backed interface for tests.
type node struct {
	host *Host
	dev  *link.Device
	ifc  *Iface
}

func addNode(t *testing.T, loop *sim.Loop, n *link.Network, name, cidr string) *node {
	t.Helper()
	pfx := ip.MustParsePrefix(cidr)
	addr := ip.MustParseAddr(cidr[:len(cidr)-len("/24")])
	h := NewHost(loop, name, Config{})
	d := link.NewDevice(loop, name+"-eth0", 0, 0)
	d.Attach(n)
	d.BringUp(nil)
	ifc := h.AddIface("eth0", d, addr, pfx, IfaceOpts{})
	h.ConnectRoute(ifc)
	loop.RunFor(0)
	return &node{host: h, dev: d, ifc: ifc}
}

// collect registers a UDP-protocol handler that records delivered packets:
// clones, because a handler is only lent the packet it is handed.
func collect(h *Host) *[]*ip.Packet {
	var got []*ip.Packet
	h.RegisterHandler(ip.ProtoUDP, func(_ *Iface, pkt *ip.Packet) { got = append(got, pkt.Clone()) })
	return &got
}

func udpPacket(src, dst string, payload string) *ip.Packet {
	return &ip.Packet{
		Header:  ip.Header{Protocol: ip.ProtoUDP, Src: ip.MustParseAddr(src), Dst: ip.MustParseAddr(dst)},
		Payload: []byte(payload),
	}
}

func TestRouteTableLPM(t *testing.T) {
	loop := sim.New(1)
	h := NewHost(loop, "h", Config{})
	a := h.AddVirtualIface("a", func(*ip.Packet, ip.Addr) {})
	b := h.AddVirtualIface("b", func(*ip.Packet, ip.Addr) {})
	c := h.AddVirtualIface("c", func(*ip.Packet, ip.Addr) {})

	var rt RouteTable
	rt.Add(Route{Dst: ip.MustParsePrefix("0.0.0.0/0"), Iface: a})
	rt.Add(Route{Dst: ip.MustParsePrefix("36.0.0.0/8"), Iface: b})
	rt.Add(Route{Dst: ip.MustParsePrefix("36.135.0.0/16"), Iface: c})

	cases := map[string]*Iface{
		"36.135.0.1": c,
		"36.8.0.1":   b,
		"128.9.0.1":  a,
	}
	for addr, want := range cases {
		r, ok := rt.Lookup(ip.MustParseAddr(addr))
		if !ok || r.Iface != want {
			t.Errorf("Lookup(%s) -> %v, want iface %s", addr, r.Iface, want.Name())
		}
	}
}

func TestRouteTableMetric(t *testing.T) {
	loop := sim.New(1)
	h := NewHost(loop, "h", Config{})
	a := h.AddVirtualIface("a", func(*ip.Packet, ip.Addr) {})
	b := h.AddVirtualIface("b", func(*ip.Packet, ip.Addr) {})
	var rt RouteTable
	rt.Add(Route{Dst: ip.MustParsePrefix("10.0.0.0/8"), Iface: a, Metric: 10})
	rt.Add(Route{Dst: ip.MustParsePrefix("10.0.0.0/8"), Iface: b, Metric: 1})
	r, _ := rt.Lookup(ip.MustParseAddr("10.1.1.1"))
	if r.Iface != b {
		t.Fatal("lower metric not preferred")
	}
}

// TestRouteTableAddMatchesStableSort: Add places a route by binary search;
// the reference appends it and stable-sorts the whole table, as Add did. Over
// seeded scripts of adds (new tuples, re-adds, metric changes) and deletes
// the two tables hold the same routes in the same order after every step.
func TestRouteTableAddMatchesStableSort(t *testing.T) {
	h := NewHost(sim.New(1), "h", Config{})
	ifaces := []*Iface{
		h.AddVirtualIface("a", func(*ip.Packet, ip.Addr) {}),
		h.AddVirtualIface("b", func(*ip.Packet, ip.Addr) {}),
		h.AddVirtualIface("c", func(*ip.Packet, ip.Addr) {}),
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var rt RouteTable
		var ref []Route
		for step := 0; step < 300; step++ {
			r := Route{
				Dst:     ip.Prefix{Addr: ip.Addr{10, byte(rng.Intn(4)), 0, 0}, Bits: 8 * (1 + rng.Intn(3))}.Normalize(),
				Gateway: ip.Addr{10, 0, 0, byte(rng.Intn(2))},
				Iface:   ifaces[rng.Intn(len(ifaces))],
				Metric:  rng.Intn(3),
			}
			if rng.Intn(5) == 0 {
				rt.Delete(r.Dst)
				kept := ref[:0]
				for _, e := range ref {
					if e.Dst != r.Dst {
						kept = append(kept, e)
					}
				}
				ref = kept
			} else {
				rt.Add(r)
				found := false
				for i := range ref {
					if ref[i].Dst == r.Dst && ref[i].Gateway == r.Gateway && ref[i].Iface == r.Iface {
						ref[i].Metric, found = r.Metric, true
					}
				}
				if !found {
					ref = append(ref, r)
				}
				sort.SliceStable(ref, func(i, j int) bool { return ref[i].before(ref[j]) })
			}
			if len(rt.routes) != len(ref) {
				t.Fatalf("seed %d step %d: %d routes, reference has %d", seed, step, len(rt.routes), len(ref))
			}
			for i := range ref {
				if rt.routes[i] != ref[i] {
					t.Fatalf("seed %d step %d: route %d is %v, the stable sort has %v", seed, step, i, rt.routes[i], ref[i])
				}
			}
		}
	}
}

func TestRouteTableReplaceAndDelete(t *testing.T) {
	loop := sim.New(1)
	h := NewHost(loop, "h", Config{})
	a := h.AddVirtualIface("a", func(*ip.Packet, ip.Addr) {})
	var rt RouteTable
	rt.Add(Route{Dst: ip.MustParsePrefix("10.0.0.0/8"), Iface: a, Metric: 5})
	rt.Add(Route{Dst: ip.MustParsePrefix("10.0.0.0/8"), Iface: a, Metric: 2}) // replace
	if rt.Len() != 1 {
		t.Fatalf("len = %d after replace", rt.Len())
	}
	if r, _ := rt.Lookup(ip.MustParseAddr("10.1.1.1")); r.Metric != 2 {
		t.Fatalf("metric = %d", r.Metric)
	}
	if !rt.Delete(ip.MustParsePrefix("10.0.0.0/8")) {
		t.Fatal("Delete returned false")
	}
	if _, ok := rt.Lookup(ip.MustParseAddr("10.1.1.1")); ok {
		t.Fatal("route survived Delete")
	}
	if rt.Delete(ip.MustParsePrefix("10.0.0.0/8")) {
		t.Fatal("second Delete returned true")
	}
}

func TestRouteTableDeleteIface(t *testing.T) {
	loop := sim.New(1)
	h := NewHost(loop, "h", Config{})
	a := h.AddVirtualIface("a", func(*ip.Packet, ip.Addr) {})
	b := h.AddVirtualIface("b", func(*ip.Packet, ip.Addr) {})
	var rt RouteTable
	rt.Add(Route{Dst: ip.MustParsePrefix("10.0.0.0/8"), Iface: a})
	rt.Add(Route{Dst: ip.MustParsePrefix("11.0.0.0/8"), Iface: a})
	rt.Add(Route{Dst: ip.MustParsePrefix("12.0.0.0/8"), Iface: b})
	if n := rt.DeleteIface(a); n != 2 {
		t.Fatalf("DeleteIface removed %d", n)
	}
	if rt.Len() != 1 {
		t.Fatalf("len = %d", rt.Len())
	}
}

func TestRouteTableSkipsDownIfaces(t *testing.T) {
	loop := sim.New(1)
	n := link.NewNetwork(loop, "n", link.Ethernet())
	a := addNode(t, loop, n, "a", "10.0.0.1/24")
	// A second, more specific route through a down device must be skipped.
	d2 := link.NewDevice(loop, "eth1", 0, 0)
	ifc2 := a.host.AddIface("eth1", d2, ip.MustParseAddr("10.0.1.1"), ip.MustParsePrefix("10.0.1.0/24"), IfaceOpts{})
	a.host.Routes().Add(Route{Dst: ip.MustParsePrefix("10.0.0.0/16"), Iface: ifc2})
	r, ok := a.host.Routes().Lookup(ip.MustParseAddr("10.0.0.5"))
	if !ok || r.Iface != a.ifc {
		t.Fatalf("lookup chose %v", r)
	}
}

func TestLocalDeliveryViaLoopback(t *testing.T) {
	loop := sim.New(1)
	h := NewHost(loop, "h", Config{})
	got := collect(h)
	pkt := udpPacket("0.0.0.0", "127.0.0.1", "loop")
	if err := h.Output(pkt); err != nil {
		t.Fatal(err)
	}
	loop.Run()
	if len(*got) != 1 {
		t.Fatalf("delivered %d", len(*got))
	}
	if (*got)[0].Src != ip.MustParseAddr("127.0.0.1") {
		t.Fatalf("loopback src = %v", (*got)[0].Src)
	}
}

func TestSelfAddressedDeliveryLocal(t *testing.T) {
	loop := sim.New(1)
	n := link.NewNetwork(loop, "n", link.Ethernet())
	a := addNode(t, loop, n, "a", "10.0.0.1/24")
	got := collect(a.host)
	a.host.Output(udpPacket("0.0.0.0", "10.0.0.1", "self"))
	loop.Run()
	if len(*got) != 1 {
		t.Fatal("self-addressed packet not delivered")
	}
	if a.dev.Stats().Sent != 0 {
		t.Fatal("self-addressed packet hit the wire")
	}
}

func TestTwoHostExchange(t *testing.T) {
	loop := sim.New(1)
	n := link.NewNetwork(loop, "n", link.Ethernet())
	a := addNode(t, loop, n, "a", "10.0.0.1/24")
	b := addNode(t, loop, n, "b", "10.0.0.2/24")
	got := collect(b.host)
	a.host.Output(udpPacket("0.0.0.0", "10.0.0.2", "hello"))
	loop.RunFor(time.Second)
	if len(*got) != 1 || string((*got)[0].Payload) != "hello" {
		t.Fatalf("b got %v", got)
	}
	if (*got)[0].Src != ip.MustParseAddr("10.0.0.1") {
		t.Fatalf("source not filled in: %v", (*got)[0].Src)
	}
}

func TestBoundSourcePreserved(t *testing.T) {
	loop := sim.New(1)
	n := link.NewNetwork(loop, "n", link.Ethernet())
	a := addNode(t, loop, n, "a", "10.0.0.1/24")
	b := addNode(t, loop, n, "b", "10.0.0.2/24")
	got := collect(b.host)
	// Bound to an address that is not the interface's: the stack must not
	// second-guess it (this is how the triangle route keeps the home
	// address as source on a foreign net).
	a.host.Output(udpPacket("36.135.0.7", "10.0.0.2", "x"))
	loop.RunFor(time.Second)
	if len(*got) != 1 || (*got)[0].Src != ip.MustParseAddr("36.135.0.7") {
		t.Fatal("bound source was rewritten")
	}
}

func TestNoRoute(t *testing.T) {
	loop := sim.New(1)
	h := NewHost(loop, "h", Config{})
	err := h.Output(udpPacket("0.0.0.0", "99.99.99.99", "x"))
	if err == nil {
		t.Fatal("Output with no route succeeded")
	}
	if h.Stats().DropNoRoute != 1 {
		t.Fatal("DropNoRoute not counted")
	}
}

// twoSubnetTopology builds: a -- netA -- router -- netB -- b
func twoSubnetTopology(t *testing.T, loop *sim.Loop) (a, b *node, router *Host) {
	t.Helper()
	netA := link.NewNetwork(loop, "netA", link.Ethernet())
	netB := link.NewNetwork(loop, "netB", link.Ethernet())
	a = addNode(t, loop, netA, "a", "10.0.0.2/24")
	b = addNode(t, loop, netB, "b", "10.0.1.2/24")

	router = NewHost(loop, "router", Config{})
	rdA := link.NewDevice(loop, "r-eth0", 0, 0)
	rdA.Attach(netA)
	rdA.BringUp(nil)
	rdB := link.NewDevice(loop, "r-eth1", 0, 0)
	rdB.Attach(netB)
	rdB.BringUp(nil)
	rifA := router.AddIface("eth0", rdA, ip.MustParseAddr("10.0.0.1"), ip.MustParsePrefix("10.0.0.0/24"), IfaceOpts{})
	rifB := router.AddIface("eth1", rdB, ip.MustParseAddr("10.0.1.1"), ip.MustParsePrefix("10.0.1.0/24"), IfaceOpts{})
	router.ConnectRoute(rifA)
	router.ConnectRoute(rifB)
	router.SetForwarding(true)

	a.host.AddDefaultRoute(ip.MustParseAddr("10.0.0.1"), a.ifc)
	b.host.AddDefaultRoute(ip.MustParseAddr("10.0.1.1"), b.ifc)
	loop.RunFor(0)
	return a, b, router
}

func TestForwardingAcrossSubnets(t *testing.T) {
	loop := sim.New(1)
	a, b, router := twoSubnetTopology(t, loop)
	got := collect(b.host)
	a.host.Output(udpPacket("0.0.0.0", "10.0.1.2", "routed"))
	loop.RunFor(time.Second)
	if len(*got) != 1 {
		t.Fatalf("b got %d packets", len(*got))
	}
	if (*got)[0].TTL != ip.DefaultTTL-1 {
		t.Fatalf("TTL = %d, want %d", (*got)[0].TTL, ip.DefaultTTL-1)
	}
	if router.Stats().Forwarded != 1 {
		t.Fatal("router did not count the forward")
	}
}

func TestForwardingDisabledDrops(t *testing.T) {
	loop := sim.New(1)
	a, b, router := twoSubnetTopology(t, loop)
	router.SetForwarding(false)
	got := collect(b.host)
	a.host.Output(udpPacket("0.0.0.0", "10.0.1.2", "x"))
	loop.RunFor(time.Second)
	if len(*got) != 0 {
		t.Fatal("packet crossed a non-forwarding host")
	}
	if router.Stats().DropNotLocal != 1 {
		t.Fatal("DropNotLocal not counted")
	}
}

func TestTTLExpiry(t *testing.T) {
	loop := sim.New(1)
	a, b, router := twoSubnetTopology(t, loop)
	got := collect(b.host)
	pkt := udpPacket("0.0.0.0", "10.0.1.2", "dying")
	pkt.TTL = 1
	a.host.Output(pkt)
	loop.RunFor(time.Second)
	if len(*got) != 0 {
		t.Fatal("TTL=1 packet was forwarded")
	}
	if router.Stats().DropTTL != 1 {
		t.Fatal("DropTTL not counted")
	}
}

// TestFilterDropAndReject: the paper's transit filter forbids forwarding
// packets whose source is not local to the ingress subnet. Local traffic
// passes; transit-looking traffic is dropped, counted, and answered with
// no ICMP error.
func TestFilterDropAndReject(t *testing.T) {
	loop := sim.New(1)
	a, b, router := twoSubnetTopology(t, loop)
	got := collect(b.host)
	router.IfaceByName("eth0").SetTransitFilter(true)

	a.host.Output(udpPacket("0.0.0.0", "10.0.1.2", "ok"))
	loop.RunFor(time.Second)
	if len(*got) != 1 {
		t.Fatal("local-source packet filtered")
	}

	a.host.Output(udpPacket("36.135.0.7", "10.0.1.2", "transit"))
	loop.RunFor(time.Second)
	if len(*got) != 1 {
		t.Fatal("transit packet crossed the filter")
	}
	if router.Stats().DropFilter != 1 {
		t.Fatal("DropFilter not counted")
	}
	if n := router.ICMP().Sent; n != 0 {
		t.Fatalf("router sent %d ICMP messages for a filtered packet, want none", n)
	}
}

func TestPingEcho(t *testing.T) {
	loop := sim.New(1)
	n := link.NewNetwork(loop, "n", link.Ethernet())
	a := addNode(t, loop, n, "a", "10.0.0.1/24")
	b := addNode(t, loop, n, "b", "10.0.0.2/24")
	_ = b
	var res PingResult
	done := false
	a.host.ICMP().Ping(ip.MustParseAddr("10.0.0.2"), ip.Unspecified, 56, time.Second, func(r PingResult) {
		res, done = r, true
	})
	loop.RunFor(2 * time.Second)
	if !done || res.TimedOut || res.Unreachable {
		t.Fatalf("ping failed: %+v", res)
	}
	if res.From != ip.MustParseAddr("10.0.0.2") {
		t.Fatalf("reply from %v", res.From)
	}
	if res.RTT <= 0 || res.RTT > 10*time.Millisecond {
		t.Fatalf("implausible ethernet RTT %v", res.RTT)
	}
}

func TestPingTimeout(t *testing.T) {
	loop := sim.New(1)
	n := link.NewNetwork(loop, "n", link.Ethernet())
	a := addNode(t, loop, n, "a", "10.0.0.1/24")
	var res PingResult
	done := false
	a.host.ICMP().Ping(ip.MustParseAddr("10.0.0.99"), ip.Unspecified, 56, 500*time.Millisecond, func(r PingResult) {
		res, done = r, true
	})
	loop.RunFor(5 * time.Second)
	if !done || !res.TimedOut {
		t.Fatalf("expected timeout: %+v done=%v", res, done)
	}
}

func TestPingRejectedSurfacesUnreachable(t *testing.T) {
	loop := sim.New(1)
	a, _, _ := twoSubnetTopology(t, loop)
	// The router has no route to the target; its net-unreachable error
	// routes straight back to the pinger's own address.
	var res PingResult
	done := false
	a.host.ICMP().Ping(ip.MustParseAddr("10.0.9.2"), ip.Unspecified, 8, time.Second, func(r PingResult) {
		res, done = r, true
	})
	loop.RunFor(2 * time.Second)
	if !done || !res.Unreachable {
		t.Fatalf("expected unreachable: %+v done=%v", res, done)
	}
	if res.Code != ip.CodeNetUnreach {
		t.Fatalf("code = %d, want net-unreachable", res.Code)
	}
}

// TestTransitFilteredPingTimesOut is the paper's triangle-route failure
// mode: a probe sent with the (foreign) home address as source is dropped
// by a transit filter, which sends no error (one would go to that foreign
// source anyway), so the mobile host observes only silence — which is why
// the paper detects the condition "through failed attempts to ping".
func TestTransitFilteredPingTimesOut(t *testing.T) {
	loop := sim.New(1)
	a, b, router := twoSubnetTopology(t, loop)
	_ = b
	router.IfaceByName("eth0").SetTransitFilter(true)
	var res PingResult
	done := false
	a.host.ICMP().Ping(ip.MustParseAddr("10.0.1.2"), ip.MustParseAddr("36.135.0.7"), 8, time.Second, func(r PingResult) {
		res, done = r, true
	})
	loop.RunFor(3 * time.Second)
	if !done || !res.TimedOut {
		t.Fatalf("expected timeout: %+v done=%v", res, done)
	}
}

func TestEchoRepliesWhilePingedOnSecondAddress(t *testing.T) {
	// A host must answer pings to any of its local addresses — the mobile
	// host's "local role" on a foreign network.
	loop := sim.New(1)
	n := link.NewNetwork(loop, "n", link.Ethernet())
	a := addNode(t, loop, n, "a", "10.0.0.1/24")
	b := addNode(t, loop, n, "b", "10.0.0.2/24")
	b.host.AddLocalAddr(ip.MustParseAddr("36.135.0.7"))
	b.ifc.ARP().Publish(ip.MustParseAddr("36.135.0.7")) // answer ARP for the alias
	b.host.Routes().Add(Route{Dst: ip.MustParsePrefix("0.0.0.0/0"), Iface: b.ifc})
	// a needs a route to the foreign-looking address: host route on-link.
	a.host.Routes().Add(Route{Dst: ip.MustParsePrefix("36.135.0.7/32"), Iface: a.ifc})
	var res PingResult
	done := false
	a.host.ICMP().Ping(ip.MustParseAddr("36.135.0.7"), ip.Unspecified, 8, time.Second, func(r PingResult) {
		res, done = r, true
	})
	loop.RunFor(2 * time.Second)
	if !done || res.TimedOut {
		t.Fatalf("no reply to extra local address: %+v", res)
	}
	if res.From != ip.MustParseAddr("36.135.0.7") {
		t.Fatalf("reply source %v, want the pinged address", res.From)
	}
}

// TestRedirectSentAndCounted: a router that forwards a packet back out the
// interface it came in on redirects the on-subnet sender, and the sender
// counts the redirect without installing a route from it.
func TestRedirectSentAndCounted(t *testing.T) {
	loop := sim.New(1)
	n := link.NewNetwork(loop, "n", link.Ethernet())
	a := addNode(t, loop, n, "a", "10.0.0.2/24")
	r1 := addNode(t, loop, n, "r1", "10.0.0.1/24")
	r2 := addNode(t, loop, n, "r2", "10.0.0.3/24")

	// r2 owns the far subnet; r1 knows that and forwards out the same
	// interface the packet came in on -> redirect.
	far := link.NewNetwork(loop, "far", link.Ethernet())
	fb := addNode(t, loop, far, "fb", "10.9.0.2/24")
	got := collect(fb.host)
	r2d := link.NewDevice(loop, "r2-eth1", 0, 0)
	r2d.Attach(far)
	r2d.BringUp(nil)
	r2far := r2.host.AddIface("eth1", r2d, ip.MustParseAddr("10.9.0.1"), ip.MustParsePrefix("10.9.0.0/24"), IfaceOpts{})
	r2.host.ConnectRoute(r2far)
	r2.host.SetForwarding(true)
	r1.host.SetForwarding(true)
	r1.host.Routes().Add(Route{Dst: ip.MustParsePrefix("10.9.0.0/24"), Gateway: ip.MustParseAddr("10.0.0.3"), Iface: r1.ifc})
	fb.host.AddDefaultRoute(ip.MustParseAddr("10.9.0.1"), fb.ifc)

	a.host.AddDefaultRoute(ip.MustParseAddr("10.0.0.1"), a.ifc)
	loop.RunFor(0)

	a.host.Output(udpPacket("0.0.0.0", "10.9.0.2", "one"))
	loop.RunFor(time.Second)
	if len(*got) != 1 {
		t.Fatalf("first packet not delivered (got %d)", len(*got))
	}
	if r1.host.Stats().RedirectsSent != 1 {
		t.Fatal("r1 sent no redirect")
	}
	if a.host.Stats().RedirectsRcvd != 1 {
		t.Fatal("a received no redirect")
	}
	// A received redirect is counted, never installed: the second packet
	// still goes through r1, which redirects again.
	before := r1.host.Stats().Forwarded
	a.host.Output(udpPacket("0.0.0.0", "10.9.0.2", "two"))
	loop.RunFor(time.Second)
	if len(*got) != 2 {
		t.Fatal("second packet not delivered")
	}
	if r1.host.Stats().Forwarded != before+1 || r1.host.Stats().RedirectsSent != 2 {
		t.Fatalf("second packet: r1 forwarded %d more and sent %d redirects, want 1 and 2",
			r1.host.Stats().Forwarded-before, r1.host.Stats().RedirectsSent)
	}
}

// TestNoRedirectOutTheVIFItArrivedOn: a packet forwarded back out the
// virtual interface it arrived on — a foreign agent re-tunneling what it
// decapsulated — draws no redirect. A VIF has no link neighbour to
// redirect, though its zero prefix contains every source.
func TestNoRedirectOutTheVIFItArrivedOn(t *testing.T) {
	loop := sim.New(1)
	h := NewHost(loop, "fa", Config{})
	h.SetForwarding(true)
	var out []*ip.Packet
	vif := h.AddVirtualIface("vif0", func(pkt *ip.Packet, _ ip.Addr) { out = append(out, pkt) })
	h.Routes().Add(Route{Dst: ip.MustParsePrefix("36.135.0.7/32"), Iface: vif})

	pkt := udpPacket("10.0.0.2", "36.135.0.7", "straggler")
	pkt.TTL = 8
	h.Input(vif, pkt)
	loop.RunFor(time.Second)
	if st := h.Stats(); len(out) != 1 || st.Forwarded != 1 || st.RedirectsSent != 0 {
		t.Fatalf("VIF carried %d packets; stats %+v; want the packet forwarded once and no redirect", len(out), st)
	}
}

func TestBroadcastOutputVia(t *testing.T) {
	loop := sim.New(1)
	n := link.NewNetwork(loop, "n", link.Ethernet())
	a := addNode(t, loop, n, "a", "10.0.0.1/24")
	b := addNode(t, loop, n, "b", "10.0.0.2/24")
	c := addNode(t, loop, n, "c", "10.0.0.3/24")
	gotB := collect(b.host)
	gotC := collect(c.host)
	pkt := udpPacket("0.0.0.0", "255.255.255.255", "discover")
	pkt.Src = ip.Unspecified
	a.host.OutputVia(a.ifc, pkt, ip.Broadcast)
	loop.RunFor(time.Second)
	if len(*gotB) != 1 || len(*gotC) != 1 {
		t.Fatalf("broadcast delivery b=%d c=%d", len(*gotB), len(*gotC))
	}
}

func TestRouteLookupOverrideSeam(t *testing.T) {
	loop := sim.New(1)
	n := link.NewNetwork(loop, "n", link.Ethernet())
	a := addNode(t, loop, n, "a", "10.0.0.1/24")
	var viaVif []*ip.Packet
	vif := a.host.AddVirtualIface("vif0", func(pkt *ip.Packet, _ ip.Addr) {
		viaVif = append(viaVif, pkt)
	})
	home := ip.MustParseAddr("36.135.0.7")
	def := a.host.DefaultRouteLookup
	a.host.SetRouteLookup(func(dst, boundSrc ip.Addr) (RouteDecision, error) {
		if boundSrc.IsUnspecified() || boundSrc == home {
			return RouteDecision{Iface: vif, Src: home, NextHop: dst}, nil
		}
		return def(dst, boundSrc)
	})

	// Unspecified source: mobile IP applies -> VIF, home source.
	a.host.Output(udpPacket("0.0.0.0", "36.8.0.99", "mobile"))
	loop.RunFor(100 * time.Millisecond)
	if len(viaVif) != 1 {
		t.Fatal("packet did not take the VIF")
	}
	if viaVif[0].Src != home {
		t.Fatalf("VIF packet src = %v, want home", viaVif[0].Src)
	}

	// Bound to the local interface: outside mobile IP -> physical route.
	b := addNode(t, loop, n, "b", "10.0.0.2/24")
	got := collect(b.host)
	a.host.Output(udpPacket("10.0.0.1", "10.0.0.2", "local"))
	loop.RunFor(time.Second)
	if len(*got) != 1 {
		t.Fatal("bound-source packet did not use the physical interface")
	}
	if len(viaVif) != 1 {
		t.Fatal("bound-source packet took the VIF")
	}

	a.host.SetRouteLookup(nil) // restore default
	if dec, err := a.host.RouteLookup(ip.MustParseAddr("10.0.0.2"), ip.Unspecified); err != nil || dec.Iface != a.ifc {
		t.Fatalf("default lookup not restored: %+v (err %v)", dec, err)
	}
}

func TestIsLocalAddr(t *testing.T) {
	loop := sim.New(1)
	n := link.NewNetwork(loop, "n", link.Ethernet())
	a := addNode(t, loop, n, "a", "10.0.0.1/24")
	h := a.host
	cases := map[string]bool{
		"10.0.0.1":        true,  // interface address
		"127.0.0.1":       true,  // loopback
		"255.255.255.255": true,  // limited broadcast
		"10.0.0.255":      true,  // subnet broadcast
		"10.0.0.2":        false, // neighbor
	}
	for addr, want := range cases {
		if got := h.IsLocalAddr(ip.MustParseAddr(addr)); got != want {
			t.Errorf("IsLocalAddr(%s) = %v, want %v", addr, got, want)
		}
	}
	extra := ip.MustParseAddr("36.135.0.7")
	h.AddLocalAddr(extra)
	if !h.IsLocalAddr(extra) {
		t.Fatal("AddLocalAddr ineffective")
	}
	h.RemoveLocalAddr(extra)
	if h.IsLocalAddr(extra) {
		t.Fatal("RemoveLocalAddr ineffective")
	}
}

func TestPointToPointIface(t *testing.T) {
	loop := sim.New(1)
	n := link.NewNetwork(loop, "radio", link.Serial())
	ha := NewHost(loop, "a", Config{})
	hb := NewHost(loop, "b", Config{})
	da := link.NewDevice(loop, "strip0", 0, 0)
	db := link.NewDevice(loop, "strip0", 0, 0)
	da.Attach(n)
	db.Attach(n)
	da.BringUp(nil)
	db.BringUp(nil)
	ia := ha.AddIface("strip0", da, ip.MustParseAddr("10.1.0.1"), ip.MustParsePrefix("10.1.0.0/24"), IfaceOpts{PointToPoint: true})
	ib := hb.AddIface("strip0", db, ip.MustParseAddr("10.1.0.2"), ip.MustParsePrefix("10.1.0.0/24"), IfaceOpts{PointToPoint: true})
	ha.ConnectRoute(ia)
	hb.ConnectRoute(ib)
	loop.RunFor(0)
	got := collect(hb)
	ha.Output(udpPacket("0.0.0.0", "10.1.0.2", "over the air"))
	loop.RunFor(time.Second)
	if len(*got) != 1 {
		t.Fatal("point-to-point delivery failed")
	}
	if ia.ARP() != nil {
		t.Fatal("point-to-point interface has an ARP cache")
	}
}

func TestInputDelayCharged(t *testing.T) {
	loop := sim.New(1)
	n := link.NewNetwork(loop, "n", link.Ethernet())
	a := addNode(t, loop, n, "a", "10.0.0.1/24")
	slow := NewHost(loop, "slow", Config{InputDelay: 5 * time.Millisecond})
	d := link.NewDevice(loop, "eth0", 0, 0)
	d.Attach(n)
	d.BringUp(nil)
	ifc := slow.AddIface("eth0", d, ip.MustParseAddr("10.0.0.2"), ip.MustParsePrefix("10.0.0.0/24"), IfaceOpts{})
	slow.ConnectRoute(ifc)
	loop.RunFor(0)

	var deliveredAt sim.Time
	slow.RegisterHandler(ip.ProtoUDP, func(_ *Iface, _ *ip.Packet) { deliveredAt = loop.Now() })
	start := loop.Now()
	a.host.Output(udpPacket("0.0.0.0", "10.0.0.2", "x"))
	loop.RunFor(time.Second)
	if deliveredAt.Sub(start) < 5*time.Millisecond {
		t.Fatalf("delivery took %v, input delay not charged", deliveredAt.Sub(start))
	}
}

func TestHostStatsDelivered(t *testing.T) {
	loop := sim.New(1)
	n := link.NewNetwork(loop, "n", link.Ethernet())
	a := addNode(t, loop, n, "a", "10.0.0.1/24")
	b := addNode(t, loop, n, "b", "10.0.0.2/24")
	collect(b.host)
	for i := 0; i < 5; i++ {
		a.host.Output(udpPacket("0.0.0.0", "10.0.0.2", "x"))
	}
	loop.RunFor(time.Second)
	if b.host.Stats().Delivered != 5 {
		t.Fatalf("Delivered = %d", b.host.Stats().Delivered)
	}
	if a.host.Stats().Sent != 5 {
		t.Fatalf("Sent = %d", a.host.Stats().Sent)
	}
}

func TestNoHandlerDrop(t *testing.T) {
	loop := sim.New(1)
	n := link.NewNetwork(loop, "n", link.Ethernet())
	a := addNode(t, loop, n, "a", "10.0.0.1/24")
	b := addNode(t, loop, n, "b", "10.0.0.2/24")
	a.host.Output(udpPacket("0.0.0.0", "10.0.0.2", "no one listens"))
	loop.RunFor(time.Second)
	if b.host.Stats().DropNoHandler != 1 {
		t.Fatalf("DropNoHandler = %d", b.host.Stats().DropNoHandler)
	}
}

func TestIfaceByNameAndStrings(t *testing.T) {
	loop := sim.New(1)
	n := link.NewNetwork(loop, "n", link.Ethernet())
	a := addNode(t, loop, n, "a", "10.0.0.1/24")
	if a.host.IfaceByName("eth0") != a.ifc {
		t.Fatal("IfaceByName failed")
	}
	if a.host.IfaceByName("nope") != nil {
		t.Fatal("IfaceByName invented an interface")
	}
	if a.host.Routes().String() == "" {
		t.Fatal("route table String empty")
	}
	if a.ifc.String() == "" || a.host.Loopback().Name() != "lo" {
		t.Fatal("iface naming wrong")
	}
}

// Property: route-table lookup always returns the longest matching prefix
// among up interfaces, regardless of insertion order.
func TestPropertyLPMWins(t *testing.T) {
	loop := sim.New(1)
	h := NewHost(loop, "h", Config{})
	ifaces := make([]*Iface, 33)
	for i := range ifaces {
		ifaces[i] = h.AddVirtualIface("v", func(*ip.Packet, ip.Addr) {})
	}
	f := func(addr ip.Addr, lengths []uint8, order uint8) bool {
		var rt RouteTable
		present := map[int]bool{}
		for _, l := range lengths {
			bits := int(l % 33)
			present[bits] = true
			rt.Add(Route{Dst: ip.Prefix{Addr: addr, Bits: bits}.Normalize(), Iface: ifaces[bits]})
		}
		if len(present) == 0 {
			_, ok := rt.Lookup(addr)
			return !ok
		}
		longest := -1
		for bits := range present {
			if bits > longest {
				longest = bits
			}
		}
		r, ok := rt.Lookup(addr)
		return ok && r.Dst.Bits == longest
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1996))}); err != nil {
		t.Fatal(err)
	}
}

// smallMTU is an Ethernet-like medium with a tight MTU for fragmentation
// tests.
func smallMTU(mtu int) link.Medium {
	m := link.Ethernet()
	m.MTU = mtu
	return m
}

func TestFragmentationEndToEnd(t *testing.T) {
	loop := sim.New(1)
	n := link.NewNetwork(loop, "n", smallMTU(600))
	a := addNode(t, loop, n, "a", "10.0.0.1/24")
	b := addNode(t, loop, n, "b", "10.0.0.2/24")
	got := collect(b.host)

	payload := make([]byte, 2000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	a.host.Output(udpPacket("0.0.0.0", "10.0.0.2", string(payload)))
	loop.RunFor(time.Second)
	if len(*got) != 1 {
		t.Fatalf("delivered %d packets", len(*got))
	}
	if string((*got)[0].Payload) != string(payload) {
		t.Fatal("payload corrupted across fragmentation")
	}
	if a.host.Stats().FragmentsSent < 4 {
		t.Fatalf("FragmentsSent = %d", a.host.Stats().FragmentsSent)
	}
	if b.host.Reassembler().Stats().Reassembled != 1 {
		t.Fatalf("reassembler stats: %+v", b.host.Reassembler().Stats())
	}
}

func TestFragmentLossTimesOutCleanly(t *testing.T) {
	loop := sim.New(9)
	m := smallMTU(600)
	m.LossProb = 0.3
	n := link.NewNetwork(loop, "n", m)
	a := addNode(t, loop, n, "a", "10.0.0.1/24")
	b := addNode(t, loop, n, "b", "10.0.0.2/24")
	got := collect(b.host)
	for i := 0; i < 20; i++ {
		a.host.Output(udpPacket("0.0.0.0", "10.0.0.2", string(make([]byte, 2000))))
		loop.RunFor(100 * time.Millisecond)
	}
	loop.RunFor(2 * time.Minute) // several sweep intervals
	// Some datagrams died to fragment loss; none may be delivered corrupt,
	// and the reassembler must not leak partial state forever.
	for _, p := range *got {
		if len(p.Payload) != 2000 {
			t.Fatalf("corrupt datagram of %d bytes delivered", len(p.Payload))
		}
	}
	if b.host.Reassembler().Pending() != 0 {
		t.Fatalf("reassembler leaked %d partials", b.host.Reassembler().Pending())
	}
	if b.host.Reassembler().Stats().Expired == 0 {
		t.Fatal("expected some expired partial packets at 30% loss")
	}
}

func TestPathMTUDiscoverySignal(t *testing.T) {
	// a -- (1500) -- router -- (600) -- b : a's DF packet bounces with
	// ICMP frag-needed.
	loop := sim.New(1)
	wide := link.NewNetwork(loop, "wide", link.Ethernet())
	narrow := link.NewNetwork(loop, "narrow", smallMTU(600))
	a := addNode(t, loop, wide, "a", "10.0.0.2/24")
	b := addNode(t, loop, narrow, "b", "10.0.1.2/24")
	router := NewHost(loop, "router", Config{})
	rd1 := link.NewDevice(loop, "r0", 0, 0)
	rd1.Attach(wide)
	rd1.BringUp(nil)
	rd2 := link.NewDevice(loop, "r1", 0, 0)
	rd2.Attach(narrow)
	rd2.BringUp(nil)
	ifc1 := router.AddIface("r0", rd1, ip.MustParseAddr("10.0.0.1"), ip.MustParsePrefix("10.0.0.0/24"), IfaceOpts{})
	ifc2 := router.AddIface("r1", rd2, ip.MustParseAddr("10.0.1.1"), ip.MustParsePrefix("10.0.1.0/24"), IfaceOpts{})
	router.ConnectRoute(ifc1)
	router.ConnectRoute(ifc2)
	router.SetForwarding(true)
	a.host.AddDefaultRoute(ip.MustParseAddr("10.0.0.1"), a.ifc)
	b.host.AddDefaultRoute(ip.MustParseAddr("10.0.1.1"), b.ifc)
	loop.RunFor(0)

	var gotErr *ip.ICMP
	a.host.ICMP().ErrorHook = func(m *ip.ICMP, _ ip.Addr) { gotErr = m }
	gotB := collect(b.host)

	big := udpPacket("0.0.0.0", "10.0.1.2", string(make([]byte, 1200)))
	big.DontFrag = true
	a.host.Output(big)
	loop.RunFor(time.Second)
	if len(*gotB) != 0 {
		t.Fatal("oversized DF packet crossed the narrow link")
	}
	if gotErr == nil || gotErr.Type != ip.ICMPDestUnreach || gotErr.Code != ip.CodeFragNeeded {
		t.Fatalf("expected frag-needed, got %+v", gotErr)
	}
	if router.Stats().DropMTU != 1 {
		t.Fatalf("router DropMTU = %d", router.Stats().DropMTU)
	}

	// Without DF the router fragments and b reassembles.
	small := udpPacket("0.0.0.0", "10.0.1.2", string(make([]byte, 1200)))
	a.host.Output(small)
	loop.RunFor(time.Second)
	if len(*gotB) != 1 {
		t.Fatal("fragmentable packet not delivered")
	}
}

func TestMulticastDelivery(t *testing.T) {
	loop := sim.New(1)
	n := link.NewNetwork(loop, "n", link.Ethernet())
	a := addNode(t, loop, n, "a", "10.0.0.1/24")
	b := addNode(t, loop, n, "b", "10.0.0.2/24")
	c := addNode(t, loop, n, "c", "10.0.0.3/24")

	group := ip.MustParseAddr("224.0.1.50")
	if err := b.host.JoinGroup(group); err != nil {
		t.Fatal(err)
	}
	if err := b.host.JoinGroup(ip.MustParseAddr("10.0.0.9")); err == nil {
		t.Fatal("unicast address accepted as a group")
	}
	if !b.host.InGroup(group) {
		t.Fatal("InGroup false after join")
	}

	gotB := collect(b.host)
	gotC := collect(c.host)
	a.host.Routes().Add(Route{Dst: ip.MustParsePrefix("224.0.0.0/4"), Iface: a.ifc})
	a.host.Output(udpPacket("0.0.0.0", "224.0.1.50", "to the group"))
	loop.RunFor(time.Second)

	if len(*gotB) != 1 {
		t.Fatal("member did not receive group traffic")
	}
	if string((*gotB)[0].Payload) != "to the group" {
		t.Fatal("payload wrong")
	}
	if len(*gotC) != 0 {
		t.Fatal("non-member received group traffic")
	}

	b.host.LeaveGroup(group)
	a.host.Output(udpPacket("0.0.0.0", "224.0.1.50", "after leave"))
	loop.RunFor(time.Second)
	if len(*gotB) != 1 {
		t.Fatal("member still receiving after LeaveGroup")
	}
}

func TestMulticastNotForwardedByRouters(t *testing.T) {
	loop := sim.New(1)
	a, b, router := twoSubnetTopology(t, loop)
	group := ip.MustParseAddr("224.0.1.50")
	b.host.JoinGroup(group)
	got := collect(b.host)
	router.Routes().Add(Route{Dst: ip.MustParsePrefix("224.0.0.0/4"), Iface: router.IfaceByName("eth1")})
	a.host.Routes().Add(Route{Dst: ip.MustParsePrefix("224.0.0.0/4"), Iface: a.ifc})
	a.host.Output(udpPacket("0.0.0.0", "224.0.1.50", "x"))
	loop.RunFor(time.Second)
	if len(*got) != 0 {
		t.Fatal("multicast crossed a router")
	}
}

// TestPingTableMadeOnFirstPing: a host that never pings holds no ICMP
// endpoint, and so no ping table; pings out at once are each answered or
// timed out once, and leave the table empty.
func TestPingTableMadeOnFirstPing(t *testing.T) {
	loop := sim.New(1)
	n := link.NewNetwork(loop, "n", link.Ethernet())
	a := addNode(t, loop, n, "a", "10.0.0.1/24")
	b := addNode(t, loop, n, "b", "10.0.0.2/24")
	if a.host.icmp != nil || b.host.icmp != nil {
		t.Fatal("a new host holds an ICMP endpoint")
	}
	results := map[string]int{}
	for _, d := range []string{"10.0.0.2", "10.0.0.99", "10.0.0.2", "10.0.0.98"} {
		a.host.ICMP().Ping(ip.MustParseAddr(d), ip.Unspecified, 8, 500*time.Millisecond, func(r PingResult) {
			results[fmt.Sprintf("%s timedout=%v", d, r.TimedOut)]++
		})
	}
	out := func() (n int) {
		for st := a.host.icmp.pending; st != nil; st = st.next {
			n++
		}
		return n
	}
	if out() != 4 {
		t.Fatalf("%d pings out, want 4", out())
	}
	loop.RunFor(5 * time.Second)
	want := map[string]int{"10.0.0.2 timedout=false": 2, "10.0.0.99 timedout=true": 1, "10.0.0.98 timedout=true": 1}
	if !maps.Equal(results, want) || out() != 0 {
		t.Fatalf("results %v, %d still out", results, out())
	}
}
