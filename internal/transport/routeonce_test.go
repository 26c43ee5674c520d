package transport_test

import (
	"errors"
	"testing"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/mip"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/stack"
	"mosquitonet/internal/testbed"
	"mosquitonet/internal/transport"
)

// egress is one datagram as a virtual interface was handed it.
type egress struct {
	iface         string
	src, dst      ip.Addr
	nextHop       ip.Addr
	checksumValid bool
}

// countedHost is a host with two virtual interfaces that keep what they are
// handed, routes to 10.1/16 and 10.2/16 through them, and a route slot that
// is DefaultRouteLookup wrapped to count its calls and keep its last answer.
type countedHost struct {
	loop  *sim.Loop
	host  *stack.Host
	ts    *transport.Stack
	calls int
	last  stack.RouteDecision
	out   []egress
}

func newCountedHost(t testing.TB) *countedHost {
	t.Helper()
	c := &countedHost{loop: sim.New(1)}
	c.host = stack.NewHost(c.loop, "h", stack.Config{})
	for _, v := range []struct{ name, addr, net, gw string }{
		{"vif1", "10.1.0.1", "10.1.0.0/16", "10.1.0.254"},
		{"vif2", "10.2.0.1", "10.2.0.0/16", "10.2.0.254"},
	} {
		name := v.name
		ifc := c.host.AddVirtualIface(name, func(pkt *ip.Packet, nextHop ip.Addr) {
			_, _, err := ip.UnmarshalUDP(pkt.Src, pkt.Dst, pkt.Payload)
			c.out = append(c.out, egress{name, pkt.Src, pkt.Dst, nextHop, err == nil})
			pkt.Release()
		})
		ifc.SetAddr(ip.MustParseAddr(v.addr), ip.Prefix{})
		c.host.Routes().Add(stack.Route{Dst: ip.MustParsePrefix(v.net), Gateway: ip.MustParseAddr(v.gw), Iface: ifc})
	}
	c.ts = transport.NewStack(c.host)
	c.host.SetRouteLookup(func(dst, boundSrc ip.Addr) (stack.RouteDecision, error) {
		c.calls++
		dec, err := c.host.DefaultRouteLookup(dst, boundSrc)
		c.last = dec
		return dec, err
	})
	return c
}

// TestUDPSendAsksRouteOnce: a UDP send asks the route slot once, and the
// datagram leaves with that one decision's source, interface and next hop,
// its checksum computed over the source it carries. On a mobile host away
// from home, the Mobile Policy Table — which its override consults on every
// query for a non-local destination — is read once per datagram.
func TestUDPSendAsksRouteOnce(t *testing.T) {
	dst := ip.MustParseAddr("10.1.7.7")
	for _, tc := range []struct {
		name           string
		bound, wantSrc ip.Addr
	}{
		{"unbound", ip.Unspecified, ip.MustParseAddr("10.1.0.1")},
		// Bound to the other interface's address: the source stays the
		// socket's, the egress is still the route's.
		{"bound", ip.MustParseAddr("10.2.0.1"), ip.MustParseAddr("10.2.0.1")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCountedHost(t)
			sock, err := c.ts.UDP(tc.bound, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= 3; i++ {
				if err := sock.SendTo(dst, 9, []byte("probe")); err != nil {
					t.Fatal(err)
				}
				if c.calls != i {
					t.Fatalf("after %d sends the route slot was asked %d times, want %d", i, c.calls, i)
				}
			}
			c.loop.RunFor(time.Second)
			want := egress{c.last.Iface.Name(), tc.wantSrc, dst, c.last.NextHop, true}
			if c.last.Iface.Name() != "vif1" || c.last.NextHop != ip.MustParseAddr("10.1.0.254") {
				t.Fatalf("decision %v via %v, want vif1 via 10.1.0.254", c.last.Iface, c.last.NextHop)
			}
			if len(c.out) != 3 {
				t.Fatalf("%d datagrams left, want 3", len(c.out))
			}
			for _, e := range c.out {
				if e != want {
					t.Fatalf("datagram left as %+v, want %+v", e, want)
				}
			}
			if sock.Sent != 3 || c.host.Stats().Sent != 3 {
				t.Fatalf("Sent socket %d host %d, want 3 and 3", sock.Sent, c.host.Stats().Sent)
			}
		})
	}

	t.Run("unroutable", func(t *testing.T) {
		c := newCountedHost(t)
		sock, err := c.ts.UDP(ip.Unspecified, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		err = sock.SendTo(ip.MustParseAddr("192.0.2.1"), 9, []byte("lost"))
		if !errors.Is(err, stack.ErrNoRoute) {
			t.Fatalf("SendTo to an unroutable destination returned %v, want ErrNoRoute", err)
		}
		c.loop.RunFor(time.Second)
		st := c.host.Stats()
		if c.calls != 1 || sock.Sent != 0 || st.Sent != 0 || st.DropNoRoute != 0 || len(c.out) != 0 {
			t.Fatalf("calls %d, socket Sent %d, host Sent %d, DropNoRoute %d, egress %d; want 1 and zeros",
				c.calls, sock.Sent, st.Sent, st.DropNoRoute, len(c.out))
		}
	})

	for _, tc := range []struct {
		name   string
		policy mip.Policy
	}{
		{"mobile/tunnel", mip.PolicyTunnel},
		{"mobile/direct", mip.PolicyDirect},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb := testbed.New(1)
			tb.MustConnectForeign(tb.Strip)
			var from []ip.Addr
			if _, err := tb.CH.UDP(ip.Unspecified, 9000, func(d transport.Datagram) { from = append(from, d.From) }); err != nil {
				t.Fatal(err)
			}
			tb.MH.Policy().SetHost(testbed.CHAddr, tc.policy)
			sock, err := tb.MHTS.UDP(ip.Unspecified, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			encap := tb.MH.Tunnel().Stats().Encapsulated
			for i := 0; i < 3; i++ {
				before := tb.MH.Policy().Lookups()
				if err := sock.SendTo(testbed.CHAddr, 9000, []byte("probe")); err != nil {
					t.Fatal(err)
				}
				if n := tb.MH.Policy().Lookups() - before; n != 1 {
					t.Fatalf("send %d consulted the policy table %d times, want 1", i, n)
				}
				tb.Run(time.Second)
			}
			wantFrom, wantEncap := tb.MH.HomeAddr(), encap+3
			if tc.policy == mip.PolicyDirect {
				wantFrom, wantEncap = tb.MH.CareOf(), encap
			}
			if len(from) != 3 {
				t.Fatalf("correspondent received %d datagrams, want 3", len(from))
			}
			for _, f := range from {
				if f != wantFrom {
					t.Fatalf("datagram arrived from %v, want %v", f, wantFrom)
				}
			}
			if got := tb.MH.Tunnel().Stats().Encapsulated; got != wantEncap {
				t.Fatalf("tunnel encapsulated %d, want %d", got, wantEncap)
			}
		})
	}
}

// BenchmarkUDPSend times one unbound UDP send through the stack to a
// virtual interface: the route query, the datagram's build and checksum, the
// output hop and the transmit. It fails unless each op asked the route slot
// exactly once.
func BenchmarkUDPSend(b *testing.B) {
	c := newCountedHost(b)
	sock, err := c.ts.UDP(ip.Unspecified, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	dst, payload := ip.MustParseAddr("10.1.7.7"), []byte("11-byte pay")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sock.SendTo(dst, 9, payload); err != nil {
			b.Fatal(err)
		}
		c.loop.RunFor(0)
		c.out = c.out[:0]
	}
	b.StopTimer()
	if c.calls != b.N || sock.Sent != uint64(b.N) {
		b.Fatalf("%d sends asked the route slot %d times and sent %d", b.N, c.calls, sock.Sent)
	}
	b.ReportMetric(float64(c.calls)/float64(b.N), "routes/op")
}
