package stack

import (
	"testing"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/sim"
)

// line is host a — router r — host b on two Ethernet segments, warmed by one
// delivered packet: ARP resolved on both segments, route decisions cached,
// context, hop, event and flight records on their free lists.
type line struct {
	loop      *sim.Loop
	a, r, b   *Host
	addrB     ip.Addr
	delivered int
}

const lineProto = ip.Protocol(253) // RFC 3692 experimental: no transport parsing on the path

var linePayload = []byte("scale-probe") // the fleet probe's 11 bytes; never written

func newLine(tb testing.TB) *line {
	tb.Helper()
	loop := sim.New(1)
	l := &line{loop: loop, addrB: ip.Addr{10, 2, 0, 2}}
	attach := func(h *Host, name string, n *link.Network, addr ip.Addr, pfx string) *Iface {
		d := link.NewDevice(loop, h.Name()+"-"+name, 0, 0)
		d.Attach(n)
		d.BringUp(nil)
		ifc := h.AddIface(name, d, addr, ip.MustParsePrefix(pfx), IfaceOpts{})
		h.ConnectRoute(ifc)
		return ifc
	}
	netA := link.NewNetwork(loop, "line-a", link.Ethernet())
	netB := link.NewNetwork(loop, "line-b", link.Ethernet())
	l.r = NewHost(loop, "r", Config{})
	attach(l.r, "r-a", netA, ip.Addr{10, 1, 0, 1}, "10.1.0.0/16")
	attach(l.r, "r-b", netB, ip.Addr{10, 2, 0, 1}, "10.2.0.0/16")
	l.r.SetForwarding(true)
	l.a = NewHost(loop, "a", Config{})
	l.a.AddDefaultRoute(ip.Addr{10, 1, 0, 1}, attach(l.a, "eth0", netA, ip.Addr{10, 1, 0, 2}, "10.1.0.0/16"))
	l.b = NewHost(loop, "b", Config{})
	l.b.AddDefaultRoute(ip.Addr{10, 2, 0, 1}, attach(l.b, "eth0", netB, l.addrB, "10.2.0.0/16"))
	l.b.RegisterHandler(lineProto, func(*Iface, *ip.Packet) { l.delivered++ })
	loop.RunFor(0)
	l.send(tb)
	if l.delivered != 1 {
		tb.Fatalf("warm-up packet not delivered")
	}
	return l
}

// send carries one 11-byte datagram from a through r to b's handler: Output
// and the postroute hop on a; Input, forward and the postroute hop on r;
// Input and deliver on b — six hop events and two link flights.
func (l *line) send(tb testing.TB) {
	pkt := &ip.Packet{Header: ip.Header{Protocol: lineProto, Dst: l.addrB}, Payload: linePayload}
	if err := l.a.Output(pkt); err != nil {
		tb.Fatal(err)
	}
	l.loop.RunFor(2 * time.Millisecond)
}

// BenchmarkForwardHop is the path a fleet probe takes, per packet.
func BenchmarkForwardHop(b *testing.B) {
	l := newLine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.send(b)
	}
	b.StopTimer()
	if l.delivered != b.N+1 {
		b.Fatalf("%d of %d packets delivered", l.delivered, b.N+1)
	}
}

// BenchmarkRouteLookup is one ip_rt_route() decision: from the cache, and
// recomputed through the route override after the invalidation every handoff
// causes. Its bindings case is the table lookup under a cache miss on a home
// agent holding 2,000 binding /32s: one bound home address, found in the
// /32 block, and one care-of address, which falls past it.
func BenchmarkRouteLookup(b *testing.B) {
	l := newLine(b)
	// A route override in place, as on a mobile host: the miss path goes
	// through the slot, not straight to the table.
	l.a.SetRouteLookup(l.a.DefaultRouteLookup)
	lookup := func() {
		if _, err := l.a.RouteLookup(l.addrB, ip.Unspecified); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("hit", func(b *testing.B) {
		lookup()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lookup()
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.a.InvalidateRoutes()
			lookup()
		}
	})
	b.Run("bindings", func(b *testing.B) {
		rt, vif, homes, careOf := bindingTable(2000)
		home := homes[len(homes)/2]
		if r, _ := rt.Lookup(home); r.Iface != vif {
			b.Fatalf("bound home address %v routes to %v", home, r)
		}
		if r, _ := rt.Lookup(careOf); r.Dst.Bits != 0 {
			b.Fatalf("care-of address %v routes to %v", careOf, r)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.Lookup(home)
			rt.Lookup(careOf)
		}
	})
}
