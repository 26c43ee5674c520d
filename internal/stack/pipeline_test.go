package stack

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/metrics"
	"mosquitonet/internal/pipeline"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/trace"
)

// TestBuiltinChainLayout pins the built-in hook layout: the datapath's own
// steps are ordinary named hooks, visible to introspection, in the classic
// order.
func TestBuiltinChainLayout(t *testing.T) {
	loop := sim.New(1)
	h := NewHost(loop, "h", Config{})
	cases := []struct {
		stage pipeline.Stage
		want  []string
	}{
		{pipeline.Prerouting, []string{"classify"}},
		{pipeline.Input, []string{"reassemble", "demux"}},
		{pipeline.Forward, []string{"ttl", "route", "mtu", "redirect"}},
		{pipeline.Output, []string{"unreachable"}},
		{pipeline.Postrouting, nil},
	}
	for _, c := range cases {
		got := h.Hooks(c.stage).Names()
		if len(got) != len(c.want) {
			t.Fatalf("%v chain: %v, want %v", c.stage, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("%v chain: %v, want %v", c.stage, got, c.want)
			}
		}
	}
}

// hooksArray returns the address of the array a chain or table keeps its
// hooks in (0 when it has none): equal addresses are one shared table.
func hooksArray(chainOrTable any) uintptr {
	return reflect.ValueOf(chainOrTable).Elem().FieldByName("hooks").Pointer()
}

// TestBuiltinTablesShared: every host on every loop runs one table of
// built-in steps per stage, and a host that registers or deregisters a hook
// changes its own chain only — another host's listing and forwarding stay
// as they were. The two loops are shards run by two workers, so under -race
// a write into a shared table would be reported.
func TestBuiltinTablesShared(t *testing.T) {
	const packets = 40
	var loops [2]*sim.Loop
	var senders, receivers [2]*node
	var routers [2]*Host
	for i := range loops {
		loops[i] = sim.New(int64(i + 1))
		senders[i], receivers[i], routers[i] = twoSubnetTopology(t, loops[i])
	}
	for s := pipeline.Stage(0); s < pipeline.NumStages; s++ {
		table := hooksArray(builtins[s])
		if table == 0 {
			continue // no built-ins at this stage: nothing to share
		}
		for i := range loops {
			for _, h := range []*Host{senders[i].host, receivers[i].host, routers[i]} {
				if hooksArray(h.Hooks(s)) != table {
					t.Fatalf("%s on loop %d runs its own %v chain before any registration", h.Name(), i, s)
				}
			}
		}
	}
	names, listing := routers[1].Hooks(pipeline.Forward).Names(), routers[1].Hooks(pipeline.Forward).String()

	// Loop 0's router churns a filter on its FORWARD chain throughout the run
	// while both routers forward.
	churn := pipeline.Hook[*PacketContext]{
		Name: "churn", Priority: PriForwardFilter,
		Fn: func(ctx *PacketContext) pipeline.Verdict { return ctx.Drop("churn") },
	}
	fwd0 := routers[0].Hooks(pipeline.Forward)
	for k := 0; k < packets; k++ {
		loops[0].Schedule(time.Duration(k)*time.Millisecond+time.Microsecond, func() {
			if !fwd0.Deregister("churn") {
				fwd0.Register(churn)
			}
		})
	}
	got := [2]*[]*ip.Packet{collect(receivers[0].host), collect(receivers[1].host)}
	for i := range loops {
		for k := 0; k < packets; k++ {
			a := senders[i].host
			loops[i].Schedule(time.Duration(k)*time.Millisecond, func() { a.Output(udpPacket("0.0.0.0", "10.0.1.2", "x")) })
		}
	}
	shards := sim.NewShardSet(loops[:], time.Millisecond)
	shards.SetWorkers(2)
	shards.RunFor(time.Second)

	if st := routers[1].Stats(); st.Forwarded != packets || len(*got[1]) != packets {
		t.Errorf("loop 1: router forwarded %d, receiver got %d; want %d each", st.Forwarded, len(*got[1]), packets)
	}
	if st := routers[0].Stats(); st.Forwarded == 0 || st.DropFilter == 0 || st.Forwarded+st.DropFilter != packets || len(*got[0]) != int(st.Forwarded) {
		t.Errorf("loop 0: router forwarded %d and filtered %d, receiver got %d; want both, summing to %d", st.Forwarded, st.DropFilter, len(*got[0]), packets)
	}
	fwd0.Deregister("churn")
	if got := fwd0.Names(); !reflect.DeepEqual(got, names) || fwd0.String() != listing {
		t.Errorf("loop 0 router after its churn lists %v, want the built-ins %v", got, names)
	}
	fwd1 := routers[1].Hooks(pipeline.Forward)
	if got := fwd1.Names(); !reflect.DeepEqual(got, names) || fwd1.String() != listing {
		t.Errorf("loop 1 router lists %v after another host's churn, want %v", got, names)
	}
	if table := hooksArray(builtins[pipeline.Forward]); hooksArray(fwd1) != table || hooksArray(fwd0) == table {
		t.Error("the churning router still runs the shared table, or the other one stopped")
	}
}

// TestPreroutingVerdicts exercises ACCEPT/DROP/STOLEN semantics on the
// PREROUTING chain: Drop is accounted by the observer middleware under
// the hook's chosen reason, Stolen is the hook's own responsibility, and
// deregistration restores plain delivery.
func TestPreroutingVerdicts(t *testing.T) {
	loop := sim.New(1)
	net := link.NewNetwork(loop, "n", link.Ethernet())
	a := addNode(t, loop, net, "a", "10.0.0.1/24")
	got := collect(a.host)

	stolen := 0
	a.host.Hooks(pipeline.Prerouting).Register(pipeline.Hook[*PacketContext]{
		Name: "firewall", Priority: 0,
		Fn: func(ctx *PacketContext) pipeline.Verdict {
			switch string(ctx.Pkt.Payload) {
			case "bad":
				return ctx.Drop("blocked by firewall")
			case "mine":
				stolen++
				return pipeline.Stolen
			}
			return pipeline.Accept
		},
	})

	a.host.Input(a.ifc, udpPacket("10.0.0.9", "10.0.0.1", "ok"))
	a.host.Input(a.ifc, udpPacket("10.0.0.9", "10.0.0.1", "bad"))
	a.host.Input(a.ifc, udpPacket("10.0.0.9", "10.0.0.1", "mine"))
	loop.RunFor(time.Second)

	if len(*got) != 1 || string((*got)[0].Payload) != "ok" {
		t.Fatalf("delivered %d packets", len(*got))
	}
	st := a.host.Stats()
	if st.DropFilter != 1 {
		t.Fatalf("DropFilter = %d, want 1", st.DropFilter)
	}
	if stolen != 1 {
		t.Fatalf("stolen = %d", stolen)
	}
	if st.Received != 3 {
		t.Fatalf("Received = %d, want 3 (verdicts happen after accounting arrival)", st.Received)
	}

	if !a.host.Hooks(pipeline.Prerouting).Deregister("firewall") {
		t.Fatal("Deregister(firewall) = false")
	}
	a.host.Input(a.ifc, udpPacket("10.0.0.9", "10.0.0.1", "bad"))
	loop.RunFor(time.Second)
	if len(*got) != 2 {
		t.Fatal("packet still filtered after deregistration")
	}
}

// TestInputHookStealsBeforeDemux mirrors the tunnel's decapsulation
// splice: an INPUT hook at PriDecap consumes its protocol's packets ahead
// of the demux, accounting the delivery itself via MarkDelivered.
func TestInputHookStealsBeforeDemux(t *testing.T) {
	loop := sim.New(1)
	net := link.NewNetwork(loop, "n", link.Ethernet())
	a := addNode(t, loop, net, "a", "10.0.0.1/24")
	got := collect(a.host)

	grabbed := 0
	a.host.Hooks(pipeline.Input).Register(pipeline.Hook[*PacketContext]{
		Name: "grab-udp", Priority: PriDecap,
		Fn: func(ctx *PacketContext) pipeline.Verdict {
			if ctx.Pkt.Protocol != ip.ProtoUDP {
				return pipeline.Accept
			}
			ctx.MarkDelivered("grab-udp")
			grabbed++
			return pipeline.Stolen
		},
	})
	a.host.Input(a.ifc, udpPacket("10.0.0.9", "10.0.0.1", "x"))
	loop.RunFor(time.Second)

	if len(*got) != 0 {
		t.Fatal("demux still ran the UDP handler")
	}
	if grabbed != 1 {
		t.Fatalf("grabbed = %d", grabbed)
	}
	if d := a.host.Stats().Delivered; d != 1 {
		t.Fatalf("Delivered = %d, want 1 (MarkDelivered accounts the steal)", d)
	}
}

// TestForwardSteeringHook registers a FORWARD hook ahead of the route
// built-in that steers transit packets into a virtual interface — the
// home-agent interception pattern — for a destination the routing table
// cannot resolve at all.
func TestForwardSteeringHook(t *testing.T) {
	loop := sim.New(1)
	net := link.NewNetwork(loop, "n", link.Ethernet())
	a := addNode(t, loop, net, "a", "10.0.0.1/24")
	r := addNode(t, loop, net, "r", "10.0.0.254/24")
	r.host.SetForwarding(true)
	a.host.AddDefaultRoute(ip.MustParseAddr("10.0.0.254"), a.ifc)

	var steered []*ip.Packet
	vif := r.host.AddVirtualIface("cap0", func(pkt *ip.Packet, _ ip.Addr) { steered = append(steered, pkt) })
	r.host.Hooks(pipeline.Forward).Register(pipeline.Hook[*PacketContext]{
		Name: "steer", Priority: PriForwardTTL + 50, // after ttl, before route
		Fn: func(ctx *PacketContext) pipeline.Verdict {
			ctx.Out, ctx.NextHop, ctx.Routed = vif, ctx.Pkt.Dst, true
			return pipeline.Accept
		},
	})

	if err := a.host.Output(udpPacket("10.0.0.1", "77.7.7.7", "steer me")); err != nil {
		t.Fatal(err)
	}
	loop.RunFor(time.Second)

	if len(steered) != 1 {
		t.Fatalf("steered %d packets", len(steered))
	}
	if ttl := steered[0].TTL; ttl != ip.DefaultTTL-1 {
		t.Fatalf("TTL = %d, want %d", ttl, ip.DefaultTTL-1)
	}
	st := r.host.Stats()
	if st.Forwarded != 1 || st.DropNoRoute != 0 {
		t.Fatalf("Forwarded = %d, DropNoRoute = %d", st.Forwarded, st.DropNoRoute)
	}
}

// TestOutputAndPostroutingStolen checks the egress stages' STOLEN
// semantics: an OUTPUT steal happens before Sent accounting, a
// POSTROUTING steal after it but before the wire.
func TestOutputAndPostroutingStolen(t *testing.T) {
	loop := sim.New(1)
	net := link.NewNetwork(loop, "n", link.Ethernet())
	a := addNode(t, loop, net, "a", "10.0.0.1/24")
	b := addNode(t, loop, net, "b", "10.0.0.2/24")
	got := collect(b.host)

	a.host.Hooks(pipeline.Output).Register(pipeline.Hook[*PacketContext]{
		Name: "divert", Priority: 0,
		Fn: func(ctx *PacketContext) pipeline.Verdict { return pipeline.Stolen },
	})
	a.host.Output(udpPacket("10.0.0.1", "10.0.0.2", "one"))
	loop.RunFor(time.Second)
	if s := a.host.Stats().Sent; s != 0 {
		t.Fatalf("Sent = %d after OUTPUT steal, want 0", s)
	}
	a.host.Hooks(pipeline.Output).Deregister("divert")

	a.host.Hooks(pipeline.Postrouting).Register(pipeline.Hook[*PacketContext]{
		Name: "blackhole", Priority: 0,
		Fn: func(ctx *PacketContext) pipeline.Verdict { return pipeline.Stolen },
	})
	a.host.Output(udpPacket("10.0.0.1", "10.0.0.2", "two"))
	loop.RunFor(time.Second)
	if s := a.host.Stats().Sent; s != 1 {
		t.Fatalf("Sent = %d after POSTROUTING steal, want 1", s)
	}
	if len(*got) != 0 {
		t.Fatal("stolen packet reached the wire")
	}

	a.host.Hooks(pipeline.Postrouting).Deregister("blackhole")
	a.host.Output(udpPacket("10.0.0.1", "10.0.0.2", "three"))
	loop.RunFor(time.Second)
	if len(*got) != 1 || string((*got)[0].Payload) != "three" {
		t.Fatalf("delivered %d packets after deregistration", len(*got))
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

// TestEveryDropReasonSelectsItsOwn stages a chain drop under each reason
// and checks that it moves that reason's counter and registry row alone and
// records that reason's span kind — never the drop.filter of a hook that
// staged nothing, unless the reason is the filter's.
func TestEveryDropReasonSelectsItsOwn(t *testing.T) {
	loop := sim.New(1)
	reg := metrics.Enable(loop)
	tr := trace.New(loop)
	h := NewHost(loop, "h", Config{})
	wire := h.AddVirtualIface("wire", func(*ip.Packet, ip.Addr) {})
	self := ip.Addr{10, 0, 0, 1}
	h.AddLocalAddr(self)

	var why dropReason
	h.Hooks(pipeline.Prerouting).Register(pipeline.Hook[*PacketContext]{
		Name: "stage", Priority: PriFirst,
		Fn: func(ctx *PacketContext) pipeline.Verdict {
			return ctx.drop(why, metrics.Text("staged"))
		},
	})
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
		h.Input(wire, &ip.Packet{Header: ip.Header{Protocol: ip.ProtoUDP, Src: ip.Addr{10, 0, 0, 2}, Dst: self}})
		after := h.Stats()
		if *d.counter(&after) != *d.counter(&before)+1 {
			t.Errorf("reason %d: counter %d -> %d, want +1", why, *d.counter(&before), *d.counter(&after))
		}
		*d.counter(&after) = *d.counter(&before)
		after.Received--
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

// TestRouteHookRegistrationInvalidatesRouteCache guards the stale-decision
// hazard analogous to TestPolicyChangeInvalidatesRouteCache: setting or
// clearing the route override after host start flushes cached decisions,
// and SetRouteLookup(nil) restores the stock lookup.
func TestRouteHookRegistrationInvalidatesRouteCache(t *testing.T) {
	loop := sim.New(1)
	net := link.NewNetwork(loop, "n", link.Ethernet())
	a := addNode(t, loop, net, "a", "10.0.0.1/24")
	dst := ip.MustParseAddr("10.0.0.9")

	def, err := a.host.RouteLookup(dst, ip.Addr{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.host.RouteLookup(dst, ip.Addr{}); err != nil {
		t.Fatal(err)
	}
	if h := a.host.RouteCacheStats().Hits; h == 0 {
		t.Fatal("second lookup did not hit the cache")
	}

	want := RouteDecision{Iface: a.host.Loopback(), Src: dst, NextHop: dst}
	a.host.SetRouteLookup(func(ip.Addr, ip.Addr) (RouteDecision, error) { return want, nil })
	if got, err := a.host.RouteLookup(dst, ip.Addr{}); err != nil || got != want {
		t.Fatalf("stale decision survived setting the override: %+v (err %v)", got, err)
	}

	a.host.SetRouteLookup(nil)
	if got, err := a.host.RouteLookup(dst, ip.Addr{}); err != nil || got != def {
		t.Fatalf("stale decision survived clearing the override: %+v (err %v)", got, err)
	}
}

// TestForwardHookRegistrationInvalidatesForwardCache covers the same
// hazard on the forwarding path's dst-keyed cache.
func TestForwardHookRegistrationInvalidatesForwardCache(t *testing.T) {
	loop := sim.New(1)
	net := link.NewNetwork(loop, "n", link.Ethernet())
	a := addNode(t, loop, net, "a", "10.0.0.1/24")
	dst := ip.MustParseAddr("10.0.0.9")

	if _, ok := a.host.lookupForward(dst); !ok {
		t.Fatal("no connected route")
	}
	if _, ok := a.host.lookupForward(dst); !ok {
		t.Fatal("no connected route")
	}
	before := a.host.RouteCacheStats()
	if before.Hits == 0 {
		t.Fatal("second lookup did not hit the cache")
	}

	a.host.Hooks(pipeline.Forward).Register(pipeline.Hook[*PacketContext]{
		Name: "observer", Priority: PriFirst,
		Fn: func(*PacketContext) pipeline.Verdict { return pipeline.Accept },
	})
	if _, ok := a.host.lookupForward(dst); !ok {
		t.Fatal("no connected route")
	}
	after := a.host.RouteCacheStats()
	if after.Misses != before.Misses+1 || after.Invalidations != before.Invalidations+1 {
		t.Fatalf("cache not flushed by FORWARD hook registration: before %+v, after %+v", before, after)
	}
}

// TestRejectHookSendsAdminProhibited checks the exported Reject helper:
// the packet is dropped under DropFilter and the source learns why.
func TestRejectHookSendsAdminProhibited(t *testing.T) {
	loop := sim.New(1)
	net := link.NewNetwork(loop, "n", link.Ethernet())
	a := addNode(t, loop, net, "a", "10.0.0.1/24")
	r := addNode(t, loop, net, "r", "10.0.0.254/24")
	r.host.SetForwarding(true)
	a.host.AddDefaultRoute(ip.MustParseAddr("10.0.0.254"), a.ifc)
	// The router can resolve the destination; the policy hook, sitting in
	// the filter slot after the route built-in, is what declines it.
	r.host.AddDefaultRoute(ip.MustParseAddr("10.0.0.1"), r.ifc)

	r.host.Hooks(pipeline.Forward).Register(pipeline.Hook[*PacketContext]{
		Name: "no-transit", Priority: PriForwardFilter,
		Fn: func(ctx *PacketContext) pipeline.Verdict {
			return ctx.Reject("transit prohibited")
		},
	})

	var res []PingResult
	a.host.ICMP().Ping(ip.MustParseAddr("77.7.7.7"), ip.MustParseAddr("10.0.0.1"), 8, 5*time.Second,
		func(pr PingResult) { res = append(res, pr) })
	loop.RunFor(10 * time.Second)

	if len(res) != 1 || !res[0].Unreachable || res[0].Code != ip.CodeAdminProhibited {
		t.Fatalf("ping results %+v, want one admin-prohibited unreachable", res)
	}
	if d := r.host.Stats().DropFilter; d != 1 {
		t.Fatalf("DropFilter = %d, want 1", d)
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
