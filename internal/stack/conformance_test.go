package stack

import (
	"bytes"
	"testing"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/sim"
)

// The stack's rows of the conformance table: each cites the RFC rule it
// holds a host or router to. A host builds its ICMP endpoint and its
// reassembly buffer on first use, so every row starts on hosts that hold
// neither and checks the first use too.

// icmpSeen is one ICMP message delivered to a host, and who sent it.
type icmpSeen struct {
	from ip.Addr
	msg  ip.ICMP
}

// catchICMP takes h's ICMP delivery away from its built-in endpoint and
// records every message, copied: a handler is lent its packet.
func catchICMP(t *testing.T, h *Host) *[]icmpSeen {
	t.Helper()
	var seen []icmpSeen
	h.RegisterHandler(ip.ProtoICMP, func(_ *Iface, pkt *ip.Packet) {
		m, err := ip.UnmarshalICMP(pkt.Payload)
		if err != nil {
			t.Errorf("malformed ICMP message from %v: %v", pkt.Src, err)
			return
		}
		c := *m
		c.Body = append([]byte(nil), m.Body...)
		seen = append(seen, icmpSeen{pkt.Src, c})
	})
	return &seen
}

// requireUnused fails the row unless the hosts hold no ICMP endpoint and no
// reassembly buffer yet.
func requireUnused(t *testing.T, hosts ...*Host) {
	t.Helper()
	for _, h := range hosts {
		if h.icmp != nil || h.reasm != nil {
			t.Fatalf("%s holds an ICMP endpoint (%v) or a reassembler (%v) before its first use", h.name, h.icmp != nil, h.reasm != nil)
		}
	}
}

func TestStackConformance(t *testing.T) {
	rows := []struct {
		name, cite, rule string
		check            func(t *testing.T)
	}{
		{"echo_reply", "RFC 1122 §3.2.2.6",
			"an echo reply carries the request's identifier, sequence number and data",
			func(t *testing.T) {
				loop := sim.New(1)
				n := link.NewNetwork(loop, "n", link.Ethernet())
				a := addNode(t, loop, n, "a", "10.0.0.1/24")
				b := addNode(t, loop, n, "b", "10.0.0.2/24")
				requireUnused(t, a.host, b.host)
				seen := catchICMP(t, a.host)
				data := []byte("the request's own data")
				req := &ip.ICMP{Type: ip.ICMPEchoRequest, ID: 0x4d4e, Seq: 7, Body: data}
				a.host.Output(ip.NewICMPPacket(a.host.Packets(), ip.Unspecified, b.ifc.Addr(), req))
				loop.RunFor(time.Second)
				if len(*seen) != 1 {
					t.Fatalf("%d ICMP messages back, want one echo reply", len(*seen))
				}
				r := (*seen)[0]
				if r.from != b.ifc.Addr() || r.msg.Type != ip.ICMPEchoReply || r.msg.ID != req.ID || r.msg.Seq != req.Seq || !bytes.Equal(r.msg.Body, data) {
					t.Errorf("reply %+v from %v, want an echo reply from %v with id %#x, seq %d, data %q", r.msg, r.from, b.ifc.Addr(), req.ID, req.Seq, data)
				}
				if b.host.icmp == nil || b.host.icmp.EchoRequests != 1 || b.host.icmp.Sent != 1 {
					t.Errorf("b's endpoint after the first request: %+v, want one request answered", b.host.icmp)
				}
			}},
		{"time_exceeded", "RFC 792",
			"a router that discards a datagram whose TTL expires in transit answers its source with Time Exceeded, code 0, quoting the datagram's header",
			func(t *testing.T) {
				loop := sim.New(1)
				a, b, router := twoSubnetTopology(t, loop)
				requireUnused(t, a.host, b.host, router)
				seen := catchICMP(t, a.host)
				pkt := udpPacket("0.0.0.0", "10.0.1.2", "dying")
				pkt.TTL = 1
				a.host.Output(pkt)
				loop.RunFor(time.Second)
				if len(*seen) != 1 {
					t.Fatalf("%d ICMP messages back, want one Time Exceeded", len(*seen))
				}
				r := (*seen)[0]
				if r.from != ip.MustParseAddr("10.0.0.1") || r.msg.Type != ip.ICMPTimeExceeded || r.msg.Code != 0 {
					t.Errorf("got type %d code %d from %v, want Time Exceeded code 0 from the router's 10.0.0.1", r.msg.Type, r.msg.Code, r.from)
				}
				if q, err := ip.Unmarshal(paddedHeader(r.msg.Body)); err != nil || q.Src != a.ifc.Addr() || q.Dst != ip.MustParseAddr("10.0.1.2") || q.Protocol != ip.ProtoUDP {
					t.Errorf("quoted header %+v (err %v), want the dying datagram's", q, err)
				}
				if router.icmp == nil || router.icmp.Sent != 1 {
					t.Errorf("the router's endpoint after its first error: %+v, want one sent", router.icmp)
				}
			}},
		{"no_error_about_non_initial_fragment", "RFC 1122 §3.2.2",
			"no ICMP error is sent about a fragment other than the first: TTL expiring on offset 0 draws one Time Exceeded, on a later offset none",
			func(t *testing.T) {
				for _, c := range []struct {
					fragOff  uint16
					wantSent uint64
				}{{0, 1}, {100, 0}} {
					loop := sim.New(1)
					a, _, router := twoSubnetTopology(t, loop)
					requireUnused(t, router)
					pkt := udpPacket("0.0.0.0", "10.0.1.2", "dying")
					pkt.TTL, pkt.MoreFrag, pkt.FragOff = 1, true, c.fragOff
					a.host.Output(pkt)
					loop.RunFor(time.Second)
					if router.Stats().DropTTL != 1 {
						t.Errorf("offset %d: DropTTL = %d, want 1", c.fragOff, router.Stats().DropTTL)
					}
					if got := router.ICMP().Sent; got != c.wantSent {
						t.Errorf("offset %d: ICMP errors sent = %d, want %d", c.fragOff, got, c.wantSent)
					}
				}
			}},
		{"reassembly_out_of_order", "RFC 791",
			"fragments that arrive in any order reassemble into the datagram",
			func(t *testing.T) {
				loop := sim.New(1)
				n := link.NewNetwork(loop, "n", link.Ethernet())
				a := addNode(t, loop, n, "a", "10.0.0.1/24")
				b := addNode(t, loop, n, "b", "10.0.0.2/24")
				requireUnused(t, a.host, b.host)
				got := collect(b.host)
				payload := make([]byte, 1000)
				for i := range payload {
					payload[i] = byte(i * 13)
				}
				whole := udpPacket("10.0.0.1", "10.0.0.2", string(payload))
				whole.ID = 77
				frags, err := ip.Fragment(whole, 300)
				if err != nil || len(frags) < 3 {
					t.Fatalf("fragmenting: %d pieces, %v", len(frags), err)
				}
				for i := len(frags) - 1; i >= 0; i-- { // last piece first
					a.host.Output(frags[i])
				}
				loop.RunFor(time.Second)
				if len(*got) != 1 || !bytes.Equal((*got)[0].Payload, payload) {
					t.Fatalf("delivered %d datagrams, want the one reassembled intact", len(*got))
				}
				if b.host.reasm == nil || b.host.reasm.Stats().Reassembled != 1 || b.host.reasm.Pending() != 0 {
					t.Errorf("b's reassembler after its first datagram: %+v", b.host.reasm)
				}
			}},
		{"no_error_about_broadcast", "RFC 1122 §3.2.2",
			"no ICMP error is sent about a datagram addressed to a broadcast or multicast address: a host with no route for one drops it without the Destination Unreachable a unicast gets",
			func(t *testing.T) {
				loop := sim.New(1)
				n := link.NewNetwork(loop, "n", link.Ethernet())
				h := NewHost(loop, "a", Config{})
				d := link.NewDevice(loop, "a-eth0", 0, 0)
				d.Attach(n)
				d.BringUp(nil)
				// An address and no route: every destination is unroutable.
				self := ip.MustParseAddr("10.0.0.1")
				h.AddIface("eth0", d, self, ip.MustParsePrefix("10.0.0.0/24"), IfaceOpts{})
				loop.RunFor(0)
				requireUnused(t, h)
				for _, c := range []struct {
					dst      string
					wantSent uint64
				}{{"255.255.255.255", 0}, {"224.0.1.50", 0}, {"10.9.9.9", 1}} {
					before := h.ICMP().Sent
					if err := h.Output(udpPacket(self.String(), c.dst, "x")); err == nil {
						t.Fatalf("%s: routed with no route", c.dst)
					}
					loop.RunFor(time.Second)
					if got := h.ICMP().Sent - before; got != c.wantSent {
						t.Errorf("%s: %d ICMP errors sent, want %d", c.dst, got, c.wantSent)
					}
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
