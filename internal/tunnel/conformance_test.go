package tunnel

import (
	"testing"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/stack"
)

// The tunnel's rows of the conformance table: RFC 2003's IP-in-IP, the
// encapsulation the paper's VIF performs. Each row cites its section, builds
// the two-subnet world of buildEnv, and observes the headers that crossed a
// wire through Network.AddTap.

// seen is one IPv4 datagram a tap saw on a wire, with its inner datagram
// when it is IP-in-IP.
type seen struct {
	outer ip.Header
	inner *ip.Header
}

// tapIPv4 keeps the IPv4 datagrams that cross n, parsed with the plain
// parser: a tap only observes.
func tapIPv4(t *testing.T, n *link.Network) *[]seen {
	t.Helper()
	var out []seen
	n.AddTap(func(_ *link.Device, f *link.Frame) {
		if f.Type != link.EtherTypeIPv4 {
			return
		}
		pkt, err := ip.Unmarshal(f.Payload)
		if err != nil {
			t.Fatalf("malformed IPv4 frame on %s: %v", n.Name(), err)
		}
		s := seen{outer: pkt.Header}
		if pkt.Protocol == ip.ProtoIPIP {
			in, err := ip.Unmarshal(pkt.Payload)
			if err != nil {
				t.Fatalf("malformed inner datagram on %s: %v", n.Name(), err)
			}
			s.inner = &in.Header
		}
		out = append(out, s)
	})
	return &out
}

// tunnelled returns the IP-in-IP datagrams among s.
func tunnelled(s []seen) []seen {
	var out []seen
	for _, x := range s {
		if x.inner != nil {
			out = append(out, x)
		}
	}
	return out
}

// addCorrespondent puts a host at 10.0.1.3 on the home agent's subnet whose
// route to the mobile host's home network leads through the home agent.
func addCorrespondent(e *env) *stack.Host {
	ch := stack.NewHost(e.loop, "ch", stack.Config{})
	d := link.NewDevice(e.loop, "ch-eth0", 0, 0)
	d.Attach(e.ha.IfaceByName("eth0").Device().Network())
	d.BringUp(nil)
	ifc := ch.AddIface("eth0", d, ip.MustParseAddr("10.0.1.3"), ip.MustParsePrefix("10.0.1.0/24"), stack.IfaceOpts{})
	ch.ConnectRoute(ifc)
	ch.Routes().Add(stack.Route{Dst: ip.MustParsePrefix("36.0.0.0/8"), Gateway: e.haAddr, Iface: ifc})
	e.loop.RunFor(0)
	return ch
}

// reverseTunnel makes the mobile host send every datagram from its home
// address through its VIF (the route-lookup override, as in
// TestDecapForwardsInnerForOtherHost), so one addressed to the home subnet
// does not match the VIF's route first.
func reverseTunnel(e *env) {
	def := e.mh.DefaultRouteLookup
	e.mh.SetRouteLookup(func(dst, boundSrc ip.Addr) (stack.RouteDecision, error) {
		if boundSrc == homeAddr {
			return stack.RouteDecision{Iface: e.mhT.Iface(), Src: homeAddr, NextHop: dst}, nil
		}
		return def(dst, boundSrc)
	})
}

var homeAddr = ip.MustParseAddr("36.135.0.7")

// fromHome is a datagram from the mobile host's home address to dst.
func fromHome(dst string, h ip.Header) *ip.Packet {
	h.Protocol, h.Src, h.Dst = ip.ProtoUDP, homeAddr, ip.MustParseAddr(dst)
	return &ip.Packet{Header: h, Payload: []byte("conformance")}
}

func TestTunnelConformance(t *testing.T) {
	// mhSends has the mobile host reverse-tunnel one datagram with header h
	// to the home agent and returns the IP-in-IP datagrams on its subnet.
	mhSends := func(t *testing.T, h ip.Header) []seen {
		t.Helper()
		e := buildEnv(t)
		reverseTunnel(e)
		e.ha.AddLocalAddr(ip.MustParseAddr("36.135.0.1"))
		wire := tapIPv4(t, e.mh.IfaceByName("eth0").Device().Network())
		if err := e.mh.Output(fromHome("36.135.0.1", h)); err != nil {
			t.Fatal(err)
		}
		e.loop.RunFor(time.Second)
		got := tunnelled(*wire)
		if len(got) != 1 {
			t.Fatalf("%d IP-in-IP datagrams on the mobile host's subnet, want 1: %+v", len(got), *wire)
		}
		return got
	}
	rows := []struct {
		name, cite, rule string
		check            func(t *testing.T)
	}{
		{"protocol", "RFC 2003 §3.1",
			"the outer header's protocol is 4, its addresses the tunnel's entry and exit points",
			func(t *testing.T) {
				got := mhSends(t, ip.Header{TTL: 30})[0].outer
				if got.Protocol != 4 || got.Src != ip.MustParseAddr("10.0.0.2") || got.Dst != ip.MustParseAddr("10.0.1.2") {
					t.Errorf("outer header %+v, want protocol 4 from 10.0.0.2 to 10.0.1.2", got)
				}
			}},
		{"tos", "RFC 2003 §3.1",
			"the outer type of service is copied from the inner header",
			func(t *testing.T) {
				if got := mhSends(t, ip.Header{TTL: 30, TOS: 0x10})[0].outer.TOS; got != 0x10 {
					t.Errorf("outer TOS %#x, want the inner's 0x10", got)
				}
			}},
		{"df", "RFC 2003 §3.1",
			"an inner header with Don't Fragment set gets an outer header with it set",
			func(t *testing.T) {
				if got := mhSends(t, ip.Header{TTL: 30, DontFrag: true})[0].outer; !got.DontFrag {
					t.Errorf("outer header %+v lost the inner's DF bit", got)
				}
				if got := mhSends(t, ip.Header{TTL: 30})[0].outer; got.DontFrag {
					t.Errorf("outer header %+v set DF for an inner without it", got)
				}
			}},
		{"ttl_own", "RFC 2003 §3.1",
			"an encapsulator that tunnels a datagram of its own leaves the inner TTL as it is",
			func(t *testing.T) {
				if got := mhSends(t, ip.Header{TTL: 30})[0].inner.TTL; got != 30 {
					t.Errorf("inner TTL %d on the wire, want the 30 the mobile host sent", got)
				}
			}},
		{"ttl_forwarded", "RFC 2003 §3.1",
			"an encapsulator that tunnels a datagram as part of forwarding it decrements the inner TTL by one",
			func(t *testing.T) {
				e := buildEnv(t)
				routeViaVIF(e.ha, e.haT, "36.135.0.7/32")
				e.ha.SetForwarding(true)
				ch := addCorrespondent(e)
				wire := tapIPv4(t, e.mh.IfaceByName("eth0").Device().Network())
				pkt := &ip.Packet{Header: ip.Header{TTL: 30, Protocol: ip.ProtoUDP, Src: ip.MustParseAddr("10.0.1.3"), Dst: homeAddr}, Payload: []byte("to mh")}
				if err := ch.Output(pkt); err != nil {
					t.Fatal(err)
				}
				e.loop.RunFor(time.Second)
				got := tunnelled(*wire)
				if len(got) != 1 {
					t.Fatalf("%d IP-in-IP datagrams reached the mobile host's subnet, want 1: %+v", len(got), *wire)
				}
				if got[0].inner.TTL != 29 {
					t.Errorf("inner TTL %d on the wire, want 29: the correspondent's 30 less the home agent's hop", got[0].inner.TTL)
				}
			}},
		{"ttl_decapsulated", "RFC 2003 §3.1",
			"decapsulation leaves the inner TTL as it arrived; forwarding the inner datagram on decrements it once",
			func(t *testing.T) {
				e := buildEnv(t)
				reverseTunnel(e)
				e.ha.SetForwarding(true)
				addCorrespondent(e)
				wire := tapIPv4(t, e.ha.IfaceByName("eth0").Device().Network())
				if err := e.mh.Output(fromHome("10.0.1.3", ip.Header{TTL: 30})); err != nil {
					t.Fatal(err)
				}
				e.loop.RunFor(time.Second)
				var in, out []ip.Header // the tunnelled inner header, the one the home agent forwarded
				for _, s := range *wire {
					switch {
					case s.inner != nil:
						in = append(in, *s.inner)
					case s.outer.Src == homeAddr:
						out = append(out, s.outer)
					}
				}
				if len(in) != 1 || len(out) != 1 {
					t.Fatalf("on the home subnet %d tunnelled and %d forwarded datagrams, want 1 and 1", len(in), len(out))
				}
				if in[0].TTL != 30 || out[0].TTL != 29 {
					t.Errorf("inner TTL %d in the tunnel and %d forwarded, want 30 and 29", in[0].TTL, out[0].TTL)
				}
			}},
		{"next_hop", "RFC 2003 §3",
			"an endpoint with no outer-destination resolver tunnels to its route's next hop, the exit point; one routed with no next hop counts drop_no_dst",
			func(t *testing.T) {
				e := buildEnv(t)
				ep := New(e.mh, "ipip0", func() (ip.Addr, bool) { return e.mhAddr, true }, nil)
				e.mh.Routes().Add(stack.Route{Dst: ip.MustParsePrefix("36.0.0.0/8"), Gateway: e.haAddr, Iface: ep.Iface()})
				wire := tapIPv4(t, e.mh.IfaceByName("eth0").Device().Network())
				if err := e.mh.Output(fromHome("36.135.0.1", ip.Header{TTL: 30})); err != nil {
					t.Fatal(err)
				}
				e.mh.OutputVia(ep.Iface(), fromHome("36.135.0.1", ip.Header{TTL: 30}), ip.Unspecified)
				e.loop.RunFor(time.Second)
				got := tunnelled(*wire)
				if len(got) != 1 || got[0].outer.Src != e.mhAddr || got[0].outer.Dst != e.haAddr || got[0].inner.Dst != ip.MustParseAddr("36.135.0.1") {
					t.Fatalf("IP-in-IP datagrams %+v, want one from %v to the next hop %v", got, e.mhAddr, e.haAddr)
				}
				if st := ep.Stats(); st.Encapsulated != 1 || st.DropNoDst != 1 {
					t.Errorf("encapsulated %d, drop_no_dst %d; want 1 and 1", st.Encapsulated, st.DropNoDst)
				}
			}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			t.Logf("%s: %s", r.cite, r.rule)
			r.check(t)
		})
	}
}
