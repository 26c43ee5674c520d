package stack

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/metrics"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/trace"
)

// TestBuiltinChainLayout pins the order of forward's built-in steps — TTL,
// route, transit check, MTU, redirect — with packets two adjacent steps
// would both refuse: the earlier step's drop is the one counted, and a
// redirect goes out only for a packet every step before it passed. The
// arrival interface filters transit traffic, so a source off its subnet
// (but routable, for the ICMP errors) is what the transit check refuses.
func TestBuiltinChainLayout(t *testing.T) {
	loop := sim.New(1)
	n := link.NewNetwork(loop, "n", smallMTU(600))
	r := addNode(t, loop, n, "r", "10.0.0.254/24")
	r.host.SetForwarding(true)
	r.host.Routes().Add(Route{Dst: ip.MustParsePrefix("10.9.0.0/24"), Gateway: ip.MustParseAddr("10.0.0.3"), Iface: r.ifc})
	r.ifc.SetTransitFilter(true)
	// Every routable packet would leave the way it came: each one from an
	// on-subnet sender that reaches the redirect step draws one.
	for _, c := range []struct {
		what, src, dst string
		ttl            uint8
		df             bool
		want           func(*Stats) *uint64
		filtered       uint64
	}{
		{"ttl before route", "10.9.0.5", "77.7.7.7", 1, false, func(s *Stats) *uint64 { return &s.DropTTL }, 0},
		{"route before transit check", "10.9.0.5", "77.7.7.7", 8, false, func(s *Stats) *uint64 { return &s.DropNoRoute }, 0},
		{"transit check before mtu", "10.9.0.5", "10.9.0.2", 8, true, func(s *Stats) *uint64 { return &s.DropFilter }, 1},
		{"mtu before redirect", "10.0.0.2", "10.9.0.2", 8, true, func(s *Stats) *uint64 { return &s.DropMTU }, 0},
		{"redirect last", "10.0.0.2", "10.9.0.2", 8, false, func(s *Stats) *uint64 { return &s.RedirectsSent }, 0},
	} {
		before := r.host.Stats()
		pkt := udpPacket(c.src, c.dst, string(make([]byte, 1004)))
		pkt.TTL, pkt.DontFrag = c.ttl, c.df
		r.host.Input(r.ifc, pkt)
		loop.RunFor(time.Second)
		after := r.host.Stats()
		if *c.want(&after) != *c.want(&before)+1 || after.DropFilter-before.DropFilter != c.filtered {
			t.Errorf("%s: counter %d -> %d, DropFilter %d -> %d; want +1 and +%d", c.what, *c.want(&before), *c.want(&after), before.DropFilter, after.DropFilter, c.filtered)
		}
		if c.what != "redirect last" && after.RedirectsSent != before.RedirectsSent {
			t.Errorf("%s: a dropped packet drew a redirect", c.what)
		}
	}
	if st := r.host.Stats(); st.Forwarded != 1 {
		t.Errorf("forwarded %d packets, want the last one only", st.Forwarded)
	}
}

// TestForwardFilterVerdicts exercises the transit check: switched on, an
// interface refuses to forward a packet whose source is outside its subnet
// and counts it under DropFilter; a local source passes, another interface
// still forwards a foreign source, and switching it off forwards again.
func TestForwardFilterVerdicts(t *testing.T) {
	loop := sim.New(1)
	a, b, router := twoSubnetTopology(t, loop)
	gotB, gotA := collect(b.host), collect(a.host)
	router.IfaceByName("eth0").SetTransitFilter(true)

	a.host.Output(udpPacket("0.0.0.0", "10.0.1.2", "local source"))
	a.host.Output(udpPacket("36.135.0.7", "10.0.1.2", "foreign source"))
	b.host.Output(udpPacket("36.135.0.8", "10.0.0.2", "foreign, unflagged iface"))
	loop.RunFor(time.Second)

	if len(*gotB) != 1 || string((*gotB)[0].Payload) != "local source" {
		t.Fatalf("b got %d packets through the flagged iface, want the local-source one", len(*gotB))
	}
	if len(*gotA) != 1 {
		t.Fatalf("a got %d packets through the unflagged iface, want 1", len(*gotA))
	}
	st := router.Stats()
	if st.DropFilter != 1 || st.Forwarded != 2 {
		t.Fatalf("DropFilter = %d, Forwarded = %d; want 1 and 2", st.DropFilter, st.Forwarded)
	}

	router.IfaceByName("eth0").SetTransitFilter(false)
	a.host.Output(udpPacket("36.135.0.7", "10.0.1.2", "foreign source"))
	loop.RunFor(time.Second)
	if len(*gotB) != 2 {
		t.Fatal("packet still filtered after the check was switched off")
	}
}

// TestPreroutingVerdicts exercises Input's arrival-time classification:
// a packet for the host is delivered, one for elsewhere is forwarded by a
// router and dropped as not local by any other host, and every one of them
// is counted received first.
func TestPreroutingVerdicts(t *testing.T) {
	loop := sim.New(1)
	a, b, router := twoSubnetTopology(t, loop)
	got := collect(b.host)

	transit := udpPacket("10.0.0.2", "10.0.1.2", "transit")
	transit.TTL = 8
	router.Input(router.IfaceByName("eth0"), transit)
	b.host.Input(b.ifc, udpPacket("10.0.0.2", "10.0.1.2", "local"))
	b.host.Input(b.ifc, udpPacket("10.0.0.2", "10.0.1.99", "elsewhere"))
	loop.RunFor(time.Second)

	if len(*got) != 2 {
		t.Fatalf("b delivered %d packets, want the forwarded one and the local one", len(*got))
	}
	if rs, bs := router.Stats(), b.host.Stats(); rs.Received != 1 || rs.Forwarded != 1 ||
		bs.Received != 3 || bs.Delivered != 2 || bs.DropNotLocal != 1 {
		t.Fatalf("router %+v, b %+v; want one forwarded, two delivered, one not local", rs, bs)
	}
	if st := a.host.Stats(); st.Received != 0 {
		t.Fatalf("a received %d packets, want none", st.Received)
	}
}

// TestOutputAndPostroutingStolen checks where the egress path hands a
// packet away: Output counts it sent, and the postroute hop gives a packet
// routed to a virtual interface to its transmit function — never to the
// wire — and one routed to a device to the wire.
func TestOutputAndPostroutingStolen(t *testing.T) {
	loop := sim.New(1)
	net := link.NewNetwork(loop, "n", link.Ethernet())
	a := addNode(t, loop, net, "a", "10.0.0.1/24")
	b := addNode(t, loop, net, "b", "10.0.0.2/24")
	got := collect(b.host)

	var taken []string
	divert := a.host.AddVirtualIface("divert0", func(pkt *ip.Packet, _ ip.Addr) {
		taken = append(taken, string(pkt.Payload))
		pkt.Release()
	})
	a.host.Routes().Add(Route{Dst: ip.MustParsePrefix("10.0.0.2/32"), Iface: divert})
	a.host.Output(udpPacket("10.0.0.1", "10.0.0.2", "one"))
	loop.RunFor(time.Second)
	if s := a.host.Stats().Sent; s != 1 || len(taken) != 1 || len(*got) != 0 {
		t.Fatalf("Sent = %d, VIF took %v, wire delivered %d; want 1, [one], 0", s, taken, len(*got))
	}

	a.host.Routes().Delete(ip.MustParsePrefix("10.0.0.2/32"))
	a.host.Output(udpPacket("10.0.0.1", "10.0.0.2", "two"))
	loop.RunFor(time.Second)
	if len(taken) != 1 || len(*got) != 1 || string((*got)[0].Payload) != "two" {
		t.Fatalf("after the route went: VIF took %v, wire delivered %d", taken, len(*got))
	}
}

// TestInputHookStealsBeforeDemux: a protocol-4 packet goes to the
// decapsulation slot, counted as delivered with the ip.deliver "ipip" hop,
// while other protocols still reach their handlers. With the slot empty,
// protocol 4 is a protocol without a handler.
func TestInputHookStealsBeforeDemux(t *testing.T) {
	loop := sim.New(1)
	log := metrics.TracePackets(loop, 64)
	net := link.NewNetwork(loop, "n", link.Ethernet())
	a := addNode(t, loop, net, "a", "10.0.0.1/24")
	got := collect(a.host)

	var decapsulated []*ip.Packet
	a.host.SetDecapsulator(func(pkt *ip.Packet) { decapsulated = append(decapsulated, pkt.Clone()); pkt.Release() })
	ipip := func(trace uint64) *ip.Packet {
		return &ip.Packet{Header: ip.Header{Protocol: ip.ProtoIPIP, Src: ip.MustParseAddr("10.0.0.9"), Dst: ip.MustParseAddr("10.0.0.1")}, Payload: []byte("outer"), Trace: trace}
	}
	a.host.Input(a.ifc, ipip(1<<40))
	a.host.Input(a.ifc, udpPacket("10.0.0.9", "10.0.0.1", "x"))
	loop.RunFor(time.Second)

	if len(decapsulated) != 1 || decapsulated[0].Protocol != ip.ProtoIPIP || len(*got) != 1 {
		t.Fatalf("decapsulator got %v, UDP handler %d packets; want the IP-in-IP packet and the UDP one", decapsulated, len(*got))
	}
	if d := a.host.Stats().Delivered; d != 2 {
		t.Fatalf("Delivered = %d, want 2 (the decapsulated packet counts)", d)
	}
	if tl := log.Timeline(1 << 40); len(tl) != 1 || tl[0].Point != "ip.deliver" || tl[0].Detail != "ipip" {
		t.Fatalf("IP-in-IP packet's hops %+v, want one ip.deliver ipip", tl)
	}

	a.host.SetDecapsulator(nil)
	a.host.Input(a.ifc, ipip(1<<40+1))
	loop.RunFor(time.Second)
	if st := a.host.Stats(); len(decapsulated) != 1 || st.DropNoHandler != 1 || st.Delivered != 2 {
		t.Fatalf("with the slot empty: decapsulated %d, stats %+v; want a no-handler drop", len(decapsulated), st)
	}
}

// TestOutputNoRouteEmitsUnreachable is the satellite behavior change: a
// locally originated packet whose route lookup fails is dropped with
// DropNoRoute accounting AND an ICMP Destination Unreachable back to its
// bound source, instead of vanishing silently. Unspecified sources keep
// the RFC 792 suppression.
func TestOutputNoRouteEmitsUnreachable(t *testing.T) {
	loop := sim.New(1)
	net := link.NewNetwork(loop, "n", link.Ethernet())
	a := addNode(t, loop, net, "a", "10.0.0.1/24")

	var errs []*ip.ICMP
	a.host.ICMP().ErrorHook = func(m *ip.ICMP, from ip.Addr) { errs = append(errs, m) }

	if err := a.host.Output(udpPacket("10.0.0.1", "99.1.1.1", "x")); err == nil {
		t.Fatal("Output succeeded with no route")
	}
	loop.RunFor(time.Second)
	if n := a.host.Stats().DropNoRoute; n != 1 {
		t.Fatalf("DropNoRoute = %d, want 1", n)
	}
	if len(errs) != 1 || errs[0].Type != ip.ICMPDestUnreach || errs[0].Code != ip.CodeNetUnreach {
		t.Fatalf("errors seen: %+v, want one net-unreachable", errs)
	}

	// Unspecified source: the drop is accounted but the error suppressed.
	if err := a.host.Output(&ip.Packet{Header: ip.Header{Protocol: ip.ProtoUDP, Dst: ip.MustParseAddr("99.2.2.2")}}); err == nil {
		t.Fatal("Output succeeded with no route")
	}
	loop.RunFor(time.Second)
	if n := a.host.Stats().DropNoRoute; n != 2 {
		t.Fatalf("DropNoRoute = %d, want 2", n)
	}
	if len(errs) != 1 {
		t.Fatalf("suppression failed: %d errors", len(errs))
	}
}

// TestDropSpanCarriesReasonWithoutPacketLog is the regression test for
// reasons that were built only when the packet log was on: with a tracer
// and no log, the drop spans of the three drops whose reason names an
// operand lost their "reason" attribute.
func TestDropSpanCarriesReasonWithoutPacketLog(t *testing.T) {
	loop := sim.New(1)
	tr := trace.New(loop)
	net := link.NewNetwork(loop, "n", link.Ethernet())
	a := addNode(t, loop, net, "a", "10.0.0.1/24")
	if a.host.pktlog != nil {
		t.Fatal("host has a packet log; the test needs a tracer-only host")
	}

	a.host.Input(a.ifc, udpPacket("10.0.0.9", "10.0.0.77", "x")) // not ours, not forwarding
	a.host.Input(a.ifc, &ip.Packet{Header: ip.Header{Protocol: 99, Src: ip.MustParseAddr("10.0.0.9"), Dst: ip.MustParseAddr("10.0.0.1")}})
	if err := a.host.Output(udpPacket("10.0.0.1", "99.1.1.1", "x")); err == nil {
		t.Fatal("Output succeeded with no route")
	}
	loop.RunFor(time.Second)
	a.host.SetForwarding(true)
	transit := udpPacket("10.0.0.9", "99.2.2.2", "x")
	transit.TTL = 8
	a.host.Input(a.ifc, transit)
	loop.RunFor(time.Second)

	want := []struct{ kind, reason string }{
		{kSpanDropNotLocal, "not local: dst=10.0.0.77"},
		{kSpanDropNoRoute, "no route to 99.1.1.1"},
		{kSpanDropNoHandler, "no handler for proto(99)"},
		{kSpanDropNoRoute, "no route to 99.2.2.2"},
	}
	spans := tr.FindSpans("drop.")
	if len(spans) != len(want) {
		t.Fatalf("%d drop spans, want %d: %+v", len(spans), len(want), spans)
	}
	for i, w := range want {
		if got, _ := spans[i].Attr("reason"); spans[i].Kind != w.kind || got != w.reason {
			t.Errorf("drop span %d is %s reason %q, want %s reason %q", i, spans[i].Kind, got, w.kind, w.reason)
		}
	}
}

// TestCountedDropsWriteOneHop: a malformed ICMP datagram, an oversized
// locally originated DF packet and a frame that does not parse as IP each
// move their drop counter and nothing else — no delivery — and write
// exactly one ip.drop hop and one drop span of their own kind, carrying
// their reason.
func TestCountedDropsWriteOneHop(t *testing.T) {
	loop := sim.New(1)
	log := metrics.TracePackets(loop, 64)
	tr := trace.New(loop)
	net := link.NewNetwork(loop, "n", link.Ethernet())
	a := addNode(t, loop, net, "a", "10.0.0.1/24")
	b := addNode(t, loop, net, "b", "10.0.0.2/24")

	spansSeen := 0
	check := func(what string, trace uint64, want Stats, kind, reason string) {
		t.Helper()
		if got := a.host.Stats(); got != want {
			t.Errorf("%s: stats %+v, want %+v", what, got, want)
		}
		drops := 0
		for _, e := range log.Timeline(trace) {
			switch e.Point {
			case "ip.drop":
				drops++
			case "ip.deliver":
				t.Errorf("%s: delivered: %+v", what, e)
			}
		}
		if drops != 1 {
			t.Errorf("%s: %d ip.drop hops, want 1: %+v", what, drops, log.Timeline(trace))
		}
		spans := tr.FindSpans("drop.")
		if got := spans[spansSeen:]; len(got) != 1 || got[0].Kind != kind || got[0].Actor != "a" {
			t.Errorf("%s: drop spans %+v, want one %s on a", what, got, kind)
		} else if r, _ := got[0].Attr("reason"); r != reason {
			t.Errorf("%s: drop span reason %q, want %q", what, r, reason)
		}
		spansSeen = len(spans)
	}

	want := a.host.Stats()
	const badICMP, bigDF, badFrame = 1 << 40, 1<<40 + 1, 1<<40 + 2
	bad := &ip.Packet{
		Header:  ip.Header{Protocol: ip.ProtoICMP, Src: ip.MustParseAddr("10.0.0.9"), Dst: ip.MustParseAddr("10.0.0.1")},
		Payload: []byte{byte(ip.ICMPEchoRequest)},
		Trace:   badICMP,
	}
	a.host.Input(a.ifc, bad)
	loop.RunFor(time.Second)
	want.Received++
	want.DropBadPacket++
	check("malformed ICMP", badICMP, want, kSpanDropBadPacket, "bad packet")

	big := &ip.Packet{
		Header:  ip.Header{Protocol: ip.ProtoUDP, DontFrag: true, Src: ip.MustParseAddr("10.0.0.1"), Dst: ip.MustParseAddr("10.0.0.2")},
		Payload: make([]byte, a.ifc.MTU()),
		Trace:   bigDF,
	}
	if err := a.host.Output(big); err != nil {
		t.Fatal(err)
	}
	loop.RunFor(time.Second)
	want.Sent++
	want.DropMTU++
	check("oversized DF", bigDF, want, kSpanDropMTU, "cannot fragment to mtu")

	if err := b.dev.Send(&link.Frame{Dst: a.dev.HW(), Type: link.EtherTypeIPv4, Payload: []byte{0x45, 0}, Trace: badFrame}); err != nil {
		t.Fatal(err)
	}
	loop.RunFor(time.Second)
	want.DropBadPacket++
	check("unparsable frame", badFrame, want, kSpanDropBadPacket, "bad packet")
}

// TestEveryDropReasonSelectsItsOwn drops a packet under each reason and
// checks that it moves that reason's counter and registry row alone and
// records that reason's span kind — never the drop.filter of a filter that
// staged nothing, unless the reason is the filter's.
func TestEveryDropReasonSelectsItsOwn(t *testing.T) {
	loop := sim.New(1)
	reg := metrics.Enable(loop)
	tr := trace.New(loop)
	h := NewHost(loop, "h", Config{})

	var why dropReason
	kinds := make(map[string]dropReason)
	rows := make(map[string]uint64)
	for why = 0; why < numDropReasons; why++ {
		d := drops[why]
		if other, dup := kinds[d.span]; dup {
			t.Errorf("reasons %d and %d share span kind %s", other, why, d.span)
		}
		kinds[d.span] = why
		if why != dropFilter && d.span == kSpanDropFilter {
			t.Errorf("reason %d falls back to %s", why, kSpanDropFilter)
		}

		before := h.Stats()
		h.drop(why, metrics.Text("staged"), &ip.Packet{Header: ip.Header{Protocol: ip.ProtoUDP, Src: ip.Addr{10, 0, 0, 2}, Dst: ip.Addr{10, 0, 0, 1}}})
		after := h.Stats()
		if *d.counter(&after) != *d.counter(&before)+1 {
			t.Errorf("reason %d: counter %d -> %d, want +1", why, *d.counter(&before), *d.counter(&after))
		}
		*d.counter(&after) = *d.counter(&before)
		if after != before {
			t.Errorf("reason %d moved other counters: %+v -> %+v", why, before, after)
		}
		spans := tr.FindSpans("drop.")
		if last := spans[len(spans)-1]; len(spans) != int(why)+1 || last.Kind != d.span {
			t.Errorf("reason %d: %d drop spans, last %s; want %d, last %s", why, len(spans), last.Kind, why+1, d.span)
		}
		for _, m := range reg.Snapshot().Metrics {
			if !strings.HasPrefix(m.Name, "stack.host.drop_") {
				continue
			}
			if moved := *m.Counter - rows[m.Name]; moved != 0 && m.Name != d.row || m.Name == d.row && moved != 1 {
				t.Errorf("reason %d (row %s): row %s moved by %d", why, d.row, m.Name, moved)
			}
			rows[m.Name] = *m.Counter
		}
	}
}

// TestRouteOverrideTakesEffectAtOnce: setting the route override answers
// the very next lookup with it, after stock lookups of the same query, and
// SetRouteLookup(nil) restores the stock answer on the next one.
func TestRouteOverrideTakesEffectAtOnce(t *testing.T) {
	loop := sim.New(1)
	net := link.NewNetwork(loop, "n", link.Ethernet())
	a := addNode(t, loop, net, "a", "10.0.0.1/24")
	dst := ip.MustParseAddr("10.0.0.9")

	def, err := a.host.RouteLookup(dst, ip.Addr{})
	if err != nil {
		t.Fatal(err)
	}
	if def.Iface != a.ifc {
		t.Fatalf("stock lookup routes via %v, want %v", def.Iface, a.ifc)
	}
	if again, err := a.host.RouteLookup(dst, ip.Addr{}); err != nil || again != def {
		t.Fatalf("repeated stock lookup: %+v (err %v), want %+v", again, err, def)
	}

	want := RouteDecision{Iface: a.host.Loopback(), Src: dst, NextHop: dst}
	a.host.SetRouteLookup(func(ip.Addr, ip.Addr) (RouteDecision, error) { return want, nil })
	if got, err := a.host.RouteLookup(dst, ip.Addr{}); err != nil || got != want {
		t.Fatalf("lookup after setting the override: %+v (err %v), want %+v", got, err, want)
	}

	a.host.SetRouteLookup(nil)
	if got, err := a.host.RouteLookup(dst, ip.Addr{}); err != nil || got != def {
		t.Fatalf("lookup after clearing the override: %+v (err %v), want %+v", got, err, def)
	}
}

// TestTransitFilterSwitchesOnNextPacket: a router forwards foreign-source
// packets through an interface until its transit filter goes on; the next
// one is filtered, and the next one after the filter goes off is forwarded
// again — each switch holds from the packet that follows it.
func TestTransitFilterSwitchesOnNextPacket(t *testing.T) {
	loop := sim.New(1)
	a, b, router := twoSubnetTopology(t, loop)
	got := collect(b.host)
	eth0 := router.IfaceByName("eth0")

	var delivered, filtered int
	for i, on := range []bool{false, false, true, true, false, true, false} {
		eth0.SetTransitFilter(on)
		a.host.Output(udpPacket("36.135.0.7", "10.0.1.2", "foreign source"))
		loop.RunFor(time.Second)
		if on {
			filtered++
		} else {
			delivered++
		}
		st := router.Stats()
		if len(*got) != delivered || st.DropFilter != uint64(filtered) {
			t.Fatalf("packet %d (filter %v): b has %d, router filtered %d; want %d and %d",
				i, on, len(*got), st.DropFilter, delivered, filtered)
		}
	}
}

// TestNoRouteErrorReadsAsItDid: the error a routeless host gets — from the
// stock lookup and through an override that declines the lookup — is ErrNoRoute to
// errors.Is, reads exactly as the fmt.Errorf("%w: %v", ErrNoRoute, dst) it
// replaced, and costs no formatting until somebody reads it.
func TestNoRouteErrorReadsAsItDid(t *testing.T) {
	h := NewHost(sim.New(1), "h", Config{})
	dst := ip.MustParseAddr("36.8.0.20")
	want := fmt.Errorf("%w: %v", ErrNoRoute, dst).Error()
	check := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrNoRoute) || err.Error() != want {
			t.Fatalf("%s: %q (errors.Is ErrNoRoute: %v), want %q", what, err, errors.Is(err, ErrNoRoute), want)
		}
	}
	_, err := h.DefaultRouteLookup(dst, ip.Unspecified)
	check("DefaultRouteLookup", err)
	_, err = h.RouteLookup(dst, ip.Unspecified)
	check("RouteLookup", err)
	if allocs := testing.AllocsPerRun(100, func() { _, err = h.DefaultRouteLookup(dst, ip.Unspecified) }); allocs > 1 {
		t.Fatalf("a failed lookup allocates %.1f times", allocs)
	}
	// An override that declines a lookup hands it to the stock lookup.
	h.SetRouteLookup(func(dst, boundSrc ip.Addr) (RouteDecision, error) {
		return h.DefaultRouteLookup(dst, boundSrc)
	})
	_, err = h.RouteLookup(dst, ip.Unspecified)
	check("RouteLookup through a declining override", err)
}
