package stack

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/sim"
)

// scanTable is the reference routing table: routes appended and
// stable-sorted longest prefix first, then lowest metric, and looked up by a
// first-match scan of every route — the table before its /32s were ordered
// by address.
type scanTable struct {
	routes []Route
}

func scanBefore(r, o Route) bool {
	if r.Dst.Bits != o.Dst.Bits {
		return r.Dst.Bits > o.Dst.Bits
	}
	return r.Metric < o.Metric
}

func (s *scanTable) sort() {
	sort.SliceStable(s.routes, func(i, j int) bool { return scanBefore(s.routes[i], s.routes[j]) })
}

func (s *scanTable) add(r Route) {
	r.Dst = r.Dst.Normalize()
	for i := range s.routes {
		e := &s.routes[i]
		if e.Dst == r.Dst && e.Gateway == r.Gateway && e.Iface == r.Iface {
			if e.Metric != r.Metric {
				e.Metric = r.Metric
				s.sort()
			}
			return
		}
	}
	s.routes = append(s.routes, r)
	s.sort()
}

func (s *scanTable) remove(drop func(Route) bool) {
	kept := s.routes[:0]
	for _, r := range s.routes {
		if !drop(r) {
			kept = append(kept, r)
		}
	}
	s.routes = kept
}

func (s *scanTable) lookup(dst ip.Addr) (Route, bool) {
	for _, r := range s.routes {
		if r.Dst.Contains(dst) && r.Iface.Up() {
			return r, true
		}
	}
	return Route{}, false
}

// TestRouteTableLookupMatchesScan is the oracle for the address-ordered /32
// block: seeded scripts of adds (many /32s sharing an address with differing
// metric, gateway and interface, and shorter prefixes covering them),
// in-place metric changes, deletes of a prefix or of an interface's routes,
// and interfaces going down and up, applied to the real table and to the
// reference scan. After every step both must give the same answer for every
// probe, the same routes beyond the block, and a block
// holding exactly the reference's /32s, stably ordered by address.
func TestRouteTableLookupMatchesScan(t *testing.T) {
	loop := sim.New(1)
	h := NewHost(loop, "h", Config{})
	var devs []*link.Device
	ifaces := []*Iface{h.AddVirtualIface("vif", func(*ip.Packet, ip.Addr) {})}
	for i := 0; i < 4; i++ {
		d := link.NewDevice(loop, fmt.Sprintf("eth%d", i), 0, 0)
		d.BringUp(nil)
		devs = append(devs, d)
		ifaces = append(ifaces, h.AddIface(d.Name(), d, ip.Addr{10, 9, 0, byte(i + 1)}, ip.MustParsePrefix("10.9.0.0/16"), IfaceOpts{}))
	}
	loop.RunFor(0)

	// Twelve bound addresses, interleaved with probes that no /32 matches
	// but a shorter prefix may: below, between and above the block.
	var bound, probes []ip.Addr
	for i := 0; i < 12; i++ {
		a := ip.Addr{10, byte(i % 3), 0, byte(10 + i)}
		bound = append(bound, a)
		probes = append(probes, a, ip.Addr{10, byte(i % 3), 0, byte(100 + i)})
	}
	probes = append(probes, ip.Addr{9, 0, 0, 1}, ip.Addr{10, 0, 0, 0}, ip.Addr{11, 1, 1, 1}, ip.Addr{192, 168, 0, 1})
	wide := []ip.Prefix{
		ip.MustParsePrefix("0.0.0.0/0"), ip.MustParsePrefix("10.0.0.0/8"),
		ip.MustParsePrefix("10.1.0.0/16"), ip.MustParsePrefix("10.2.0.0/24"),
	}
	gateways := []ip.Addr{{}, {10, 9, 0, 100}, {10, 9, 0, 101}}

	var downFirst, pastBlock, metricMoves, ifaceDrops int
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var rt RouteTable
		var ref scanTable
		for _, d := range devs {
			d.BringUp(nil)
		}
		loop.RunFor(0)
		for step := 0; step < 400; step++ {
			var what string
			switch k := rng.Intn(20); {
			case k < 10: // a new route or a re-add
				r := Route{Gateway: gateways[rng.Intn(len(gateways))], Iface: ifaces[rng.Intn(len(ifaces))], Metric: rng.Intn(4)}
				if rng.Intn(4) == 0 {
					r.Dst = wide[rng.Intn(len(wide))]
				} else {
					r.Dst = ip.Prefix{Addr: bound[rng.Intn(len(bound))], Bits: 32}
				}
				what = fmt.Sprintf("add %v", r)
				rt.Add(r)
				ref.add(r)
			case k < 13: // an existing route's metric changes in place
				if len(ref.routes) == 0 {
					continue
				}
				r := ref.routes[rng.Intn(len(ref.routes))]
				r.Metric = (r.Metric + 1 + rng.Intn(3)) % 4
				what = fmt.Sprintf("re-metric %v", r)
				if r.Dst.Bits == 32 {
					metricMoves++
				}
				rt.Add(r)
				ref.add(r)
			case k < 16: // a binding or a prefix goes
				dst := ip.Prefix{Addr: bound[rng.Intn(len(bound))], Bits: 32}
				if rng.Intn(4) == 0 {
					dst = wide[rng.Intn(len(wide))]
				}
				what = fmt.Sprintf("delete %v", dst)
				got := rt.Delete(dst)
				before := len(ref.routes)
				ref.remove(func(r Route) bool { return r.Dst == dst })
				if got != (len(ref.routes) != before) {
					t.Fatalf("seed %d step %d: %s reported %v", seed, step, what, got)
				}
			case k < 17: // every route through one interface goes
				ifc := ifaces[rng.Intn(len(ifaces))]
				what = "delete iface " + ifc.Name()
				n := rt.DeleteIface(ifc)
				want := 0
				for _, r := range ref.routes {
					if r.Iface == ifc {
						want++
						if r.Dst.Bits == 32 {
							ifaceDrops++
						}
					}
				}
				ref.remove(func(r Route) bool { return r.Iface == ifc })
				if n != want {
					t.Fatalf("seed %d step %d: %s removed %d, reference %d", seed, step, what, n, want)
				}
			default: // a device flaps
				d := devs[rng.Intn(len(devs))]
				if d.IsUp() {
					what = "down " + d.Name()
					d.BringDown()
				} else {
					what = "up " + d.Name()
					d.BringUp(nil)
					loop.RunFor(0)
				}
			}
			checkAgainstScan(t, &rt, &ref, probes, fmt.Sprintf("seed %d step %d (%s)", seed, step, what))
			for _, dst := range probes {
				var run []Route
				for _, r := range ref.routes {
					if r.Dst.Bits == 32 && r.Dst.Addr == dst {
						run = append(run, r)
					}
				}
				if len(run) > 1 && !run[0].Iface.Up() {
					if r, ok := ref.lookup(dst); ok && r.Dst.Bits == 32 {
						downFirst++
					}
				}
				if r, ok := ref.lookup(dst); ok && r.Dst.Bits < 32 && rt.n32 > 0 {
					pastBlock++
				}
			}
		}
	}
	t.Logf("%d lookups past a down first /32, %d past the block, %d /32 metric changes, %d /32s removed with their interface",
		downFirst, pastBlock, metricMoves, ifaceDrops)
	if downFirst == 0 || pastBlock == 0 || metricMoves == 0 || ifaceDrops == 0 {
		t.Fatalf("scripts too tame to mean anything: %d lookups answered past a down first entry of a longer /32 run, "+
			"%d answered past a non-empty block, %d /32 metric changes, %d /32s removed with their interface",
			downFirst, pastBlock, metricMoves, ifaceDrops)
	}
}

func checkAgainstScan(t *testing.T, rt *RouteTable, ref *scanTable, probes []ip.Addr, where string) {
	t.Helper()
	for _, dst := range probes {
		got, gok := rt.Lookup(dst)
		want, wok := ref.lookup(dst)
		if gok != wok || got != want {
			t.Fatalf("%s: Lookup(%v) = %v, %v; the scan gives %v, %v", where, dst, got, gok, want, wok)
		}
	}
	var block []Route
	for _, r := range ref.routes {
		if r.Dst.Bits == 32 {
			block = append(block, r)
		}
	}
	sort.SliceStable(block, func(i, j int) bool { return block[i].Dst.Addr.Less(block[j].Dst.Addr) })
	if rt.n32 != len(block) || rt.Len() != len(ref.routes) {
		t.Fatalf("%s: n32 %d of %d routes, the scan has %d /32s of %d", where, rt.n32, rt.Len(), len(block), len(ref.routes))
	}
	want := append(block, ref.routes[len(block):]...)
	for i := range want {
		if rt.routes[i] != want[i] {
			t.Fatalf("%s: route %d is %v, want %v", where, i, rt.routes[i], want[i])
		}
	}
}

// TestRouteString renders a route like "route -n" does, and the zero Route
// a failed Lookup returns as one with no interface instead of panicking.
func TestRouteString(t *testing.T) {
	h := NewHost(sim.New(1), "h", Config{})
	vif := h.AddVirtualIface("vif0", func(*ip.Packet, ip.Addr) {})
	for _, c := range []struct {
		r    Route
		want string
	}{
		{Route{}, "0.0.0.0/0 direct dev - metric 0"},
		{Route{Dst: ip.MustParsePrefix("10.1.0.0/16"), Gateway: ip.Addr{10, 0, 0, 1}, Iface: vif, Metric: 10},
			"10.1.0.0/16 via 10.0.0.1 dev vif0 metric 10"},
	} {
		if got := fmt.Sprintf("%v", c.r); got != c.want {
			t.Errorf("%%v of a route = %q, want %q", got, c.want)
		}
	}
}

// bindingTable is a home agent's table: a connected home network, a default
// route and n binding /32s to the tunnel interface, added in an order that
// is not the addresses' own. It returns the table, the tunnel interface, the
// bound home addresses and a care-of address beyond the block.
func bindingTable(n int) (*RouteTable, *Iface, []ip.Addr, ip.Addr) {
	loop := sim.New(1)
	h := NewHost(loop, "ha", Config{})
	d := link.NewDevice(loop, "ha-eth0", 0, 0)
	d.BringUp(nil)
	loop.RunFor(0)
	eth := h.AddIface("eth0", d, ip.Addr{10, 1, 0, 1}, ip.MustParsePrefix("10.1.0.0/16"), IfaceOpts{})
	vif := h.AddVirtualIface("vif0", func(*ip.Packet, ip.Addr) {})
	rt := new(RouteTable)
	rt.Add(Route{Dst: ip.MustParsePrefix("10.1.0.0/16"), Iface: eth})
	rt.Add(Route{Dst: ip.Prefix{}, Gateway: ip.Addr{10, 1, 0, 254}, Iface: eth})
	homes := make([]ip.Addr, n)
	for i := range homes {
		j := (i * 7919) % n // a prime stride: bindings arrive out of address order
		homes[i] = ip.Addr{10, 1, byte(1 + j/250), byte(2 + j%250)}
		rt.Add(Route{Dst: ip.Prefix{Addr: homes[i], Bits: 32}, Iface: vif})
	}
	return rt, vif, homes, ip.Addr{36, 135, 0, 7}
}

// TestHostRouteChurnAllocatesNothing: once warm, a binding's /32 going and
// coming back (a home agent's re-registration) and a lookup on or off the
// block allocate nothing — an index beside the slice that grew with the
// bindings would show here.
func TestHostRouteChurnAllocatesNothing(t *testing.T) {
	rt, vif, homes, careOf := bindingTable(2000)
	home := homes[len(homes)/2]
	host := Route{Dst: ip.Prefix{Addr: home, Bits: 32}, Iface: vif}
	churn := func() {
		if !rt.Delete(host.Dst) {
			t.Fatal("binding route missing")
		}
		rt.Add(host)
	}
	churn()
	if n := testing.AllocsPerRun(100, churn); n != 0 {
		t.Errorf("Delete + Add of one /32 allocates %v", n)
	}
	for _, dst := range []ip.Addr{home, careOf} {
		if n := testing.AllocsPerRun(100, func() { rt.Lookup(dst) }); n != 0 {
			t.Errorf("Lookup(%v) allocates %v", dst, n)
		}
	}
	if r, _ := rt.Lookup(home); r.Iface != vif {
		t.Fatalf("bound home address routes to %v", r)
	}
	if r, _ := rt.Lookup(careOf); r.Dst.Bits != 0 {
		t.Fatalf("care-of address routes to %v", r)
	}
}
