package stack

import (
	"testing"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/sim"
)

func TestRouteCacheHitsAndGenInvalidation(t *testing.T) {
	loop := sim.New(1)
	net := link.NewNetwork(loop, "n", link.Ethernet())
	a := addNode(t, loop, net, "a", "10.0.0.1/24")
	dst := ip.MustParseAddr("10.0.0.2")

	dec1, err := a.host.RouteLookup(dst, ip.Addr{})
	if err != nil {
		t.Fatal(err)
	}
	st := a.host.RouteCacheStats()
	if st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("after first lookup: %+v, want 1 miss", st)
	}
	for i := 0; i < 5; i++ {
		dec2, err := a.host.RouteLookup(dst, ip.Addr{})
		if err != nil || dec2 != dec1 {
			t.Fatalf("cached decision differs: %+v vs %+v (err %v)", dec2, dec1, err)
		}
	}
	st = a.host.RouteCacheStats()
	if st.Hits != 5 || st.Misses != 1 || st.Invalidations != 0 {
		t.Fatalf("after repeats: %+v, want 5 hits / 1 miss / 0 invalidations", st)
	}

	// A route-table mutation must flush the cache via the table's own gen.
	a.host.Routes().Add(Route{Dst: ip.MustParsePrefix("10.9.0.0/16"), Gateway: dst, Iface: a.ifc})
	if _, err := a.host.RouteLookup(dst, ip.Addr{}); err != nil {
		t.Fatal(err)
	}
	st = a.host.RouteCacheStats()
	if st.Misses != 2 || st.Invalidations != 1 {
		t.Fatalf("after table mutation: %+v, want 2 misses / 1 invalidation", st)
	}
}

func TestRouteCacheErrorNotCached(t *testing.T) {
	loop := sim.New(1)
	h := NewHost(loop, "h", Config{})
	dst := ip.MustParseAddr("192.0.2.1")
	for i := 0; i < 3; i++ {
		if _, err := h.RouteLookup(dst, ip.Addr{}); err == nil {
			t.Fatal("expected no-route error")
		}
	}
	st := h.RouteCacheStats()
	if st.Hits != 0 || st.Misses != 3 {
		t.Fatalf("errors must not be cached: %+v", st)
	}
}

func TestRouteCacheInvalidatedByDeviceState(t *testing.T) {
	loop := sim.New(1)
	net := link.NewNetwork(loop, "n", link.Ethernet())
	a := addNode(t, loop, net, "a", "10.0.0.1/24")
	dst := ip.MustParseAddr("10.0.0.9")

	if _, err := a.host.RouteLookup(dst, ip.Addr{}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.host.RouteLookup(dst, ip.Addr{}); err != nil {
		t.Fatal(err)
	}
	if st := a.host.RouteCacheStats(); st.Hits != 1 {
		t.Fatalf("warmup: %+v, want 1 hit", st)
	}

	// Taking the device down must invalidate: the cached decision points
	// at an interface that can no longer pass traffic.
	a.dev.BringDown()
	if _, err := a.host.RouteLookup(dst, ip.Addr{}); err == nil {
		t.Fatal("lookup via downed interface must fail, not serve a stale cached decision")
	}
	st := a.host.RouteCacheStats()
	if st.Invalidations == 0 {
		t.Fatalf("device down did not flush the cache: %+v", st)
	}

	// Back up: invalidated again, then a fresh decision succeeds.
	a.dev.BringUp(nil)
	loop.RunFor(time.Millisecond)
	if _, err := a.host.RouteLookup(dst, ip.Addr{}); err != nil {
		t.Fatalf("lookup after bring-up: %v", err)
	}
}

func TestRouteCacheInvalidatedBySetAddrAndLookupSwap(t *testing.T) {
	loop := sim.New(1)
	net := link.NewNetwork(loop, "n", link.Ethernet())
	a := addNode(t, loop, net, "a", "10.0.0.1/24")
	dst := ip.MustParseAddr("10.0.0.9")

	dec, err := a.host.RouteLookup(dst, ip.Addr{})
	if err != nil {
		t.Fatal(err)
	}
	if got := dec.Src; got != ip.MustParseAddr("10.0.0.1") {
		t.Fatalf("src %v", got)
	}
	a.ifc.SetAddr(ip.MustParseAddr("10.0.0.7"), ip.MustParsePrefix("10.0.0.0/24"))
	dec, err = a.host.RouteLookup(dst, ip.Addr{})
	if err != nil {
		t.Fatal(err)
	}
	if got := dec.Src; got != ip.MustParseAddr("10.0.0.7") {
		t.Fatalf("stale source after SetAddr: %v", got)
	}

	// Swapping the lookup function must take effect immediately.
	want := RouteDecision{Iface: a.host.Loopback(), Src: dst, NextHop: dst}
	a.host.SetRouteLookup(func(d, s ip.Addr) (RouteDecision, error) { return want, nil })
	if got, err := a.host.RouteLookup(dst, ip.Addr{}); err != nil || got != want {
		t.Fatalf("override not visible through cache: %+v (err %v)", got, err)
	}
}

func TestForwardCacheServesRepeatTraffic(t *testing.T) {
	loop := sim.New(1)
	net1 := link.NewNetwork(loop, "n1", link.Ethernet())
	net2 := link.NewNetwork(loop, "n2", link.Ethernet())
	a := addNode(t, loop, net1, "a", "10.1.0.2/24")
	b := addNode(t, loop, net2, "b", "10.2.0.2/24")

	r := NewHost(loop, "r", Config{})
	for i, spec := range []struct {
		net  *link.Network
		cidr string
	}{{net1, "10.1.0.1/24"}, {net2, "10.2.0.1/24"}} {
		d := link.NewDevice(loop, "r-eth", 0, 0)
		d.Attach(spec.net)
		d.BringUp(nil)
		ifc := r.AddIface([]string{"e0", "e1"}[i], d, ip.MustParseAddr(spec.cidr[:len(spec.cidr)-3]), ip.MustParsePrefix(spec.cidr), IfaceOpts{})
		r.ConnectRoute(ifc)
	}
	r.SetForwarding(true)
	a.host.AddDefaultRoute(ip.MustParseAddr("10.1.0.1"), a.ifc)
	b.host.AddDefaultRoute(ip.MustParseAddr("10.2.0.1"), b.ifc)
	got := collect(b.host)
	loop.RunFor(0)

	const n = 8
	for i := 0; i < n; i++ {
		i := i
		loop.Schedule(time.Duration(i)*10*time.Millisecond, func() {
			a.host.Output(udpPacket("10.1.0.2", "10.2.0.2", "fwd"))
		})
	}
	loop.RunFor(time.Second)
	if len(*got) != n {
		t.Fatalf("delivered %d, want %d", len(*got), n)
	}
	st := r.RouteCacheStats()
	// One miss fills the forward cache; every later packet hits.
	if st.Misses != 1 || st.Hits != n-1 {
		t.Fatalf("router cache stats %+v, want 1 miss / %d hits", st, n-1)
	}
}

// TestRouteTableGenBumpsOnlyOnChange pins the cache-invalidation contract
// the route-decision cache relies on: a route added or deleted — a prefix or
// a binding's /32 — bumps the table's generation, and a no-op (an identical
// re-add, a delete of a route that is not there) does not, since a bump
// flushes every cached decision for nothing.
func TestRouteTableGenBumpsOnlyOnChange(t *testing.T) {
	loop := sim.New(1)
	net := link.NewNetwork(loop, "n", link.Ethernet())
	a := addNode(t, loop, net, "a", "10.0.0.1/24")
	tbl := a.host.Routes()
	vif := a.host.AddVirtualIface("vif0", func(*ip.Packet, ip.Addr) {})
	wide := Route{Dst: ip.MustParsePrefix("10.9.0.0/16"), Gateway: ip.MustParseAddr("10.0.0.2"), Iface: a.ifc}
	host := Route{Dst: ip.MustParsePrefix("10.0.0.7/32"), Iface: vif}

	for _, step := range []struct {
		what   string
		change func()
		bumps  bool
	}{
		{"add a prefix", func() { tbl.Add(wide) }, true},
		{"re-add it", func() { tbl.Add(wide) }, false},
		{"add a /32", func() { tbl.Add(host) }, true},
		{"re-add the /32", func() { tbl.Add(host) }, false},
		{"delete the /32", func() { tbl.Delete(host.Dst) }, true},
		{"delete the absent /32", func() { tbl.Delete(host.Dst) }, false},
		{"delete the prefix", func() { tbl.Delete(wide.Dst) }, true},
		{"delete the absent prefix", func() { tbl.Delete(wide.Dst) }, false},
	} {
		gen := tbl.gen
		step.change()
		if bumped := tbl.gen != gen; bumped != step.bumps {
			t.Fatalf("%s: generation bumped %v, want %v", step.what, bumped, step.bumps)
		}
	}
}
