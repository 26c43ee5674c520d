package stack

import (
	"testing"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/sim"
)

// TestDownDeviceRouteIsPassedOver: a lookup answered through a device fails
// the moment the device goes down, and succeeds again once it is back up.
func TestDownDeviceRouteIsPassedOver(t *testing.T) {
	loop := sim.New(1)
	net := link.NewNetwork(loop, "n", link.Ethernet())
	a := addNode(t, loop, net, "a", "10.0.0.1/24")
	dst := ip.MustParseAddr("10.0.0.9")

	for i := 0; i < 2; i++ {
		if dec, err := a.host.RouteLookup(dst, ip.Addr{}); err != nil || dec.Iface != a.ifc {
			t.Fatalf("lookup %d: %+v (err %v), want a route via %v", i, dec, err, a.ifc)
		}
	}

	a.dev.BringDown()
	if dec, err := a.host.RouteLookup(dst, ip.Addr{}); err == nil {
		t.Fatalf("lookup via a downed interface answered %+v", dec)
	}

	a.dev.BringUp(nil)
	loop.RunFor(time.Millisecond)
	if dec, err := a.host.RouteLookup(dst, ip.Addr{}); err != nil || dec.Iface != a.ifc {
		t.Fatalf("lookup after bring-up: %+v (err %v)", dec, err)
	}
}

// TestNewAddressIsNextSource: a lookup that leaves the source to the stack
// gets the interface's address, and after SetAddr the new one at once.
func TestNewAddressIsNextSource(t *testing.T) {
	loop := sim.New(1)
	net := link.NewNetwork(loop, "n", link.Ethernet())
	a := addNode(t, loop, net, "a", "10.0.0.1/24")
	dst := ip.MustParseAddr("10.0.0.9")

	for _, addr := range []string{"10.0.0.1", "10.0.0.1", "10.0.0.7", "10.0.0.8"} {
		want := ip.MustParseAddr(addr)
		if want != a.ifc.Addr() {
			a.ifc.SetAddr(want, ip.MustParsePrefix("10.0.0.0/24"))
		}
		dec, err := a.host.RouteLookup(dst, ip.Addr{})
		if err != nil {
			t.Fatal(err)
		}
		if dec.Src != want {
			t.Fatalf("source %v after setting %v", dec.Src, want)
		}
	}
}

// TestDefaultRouteLookupIsItsTwoHalves: the stock lookup is LocalRoute for
// the host's own unicast addresses and TableRoute for every other
// destination — broadcast and multicast included, even a joined group or
// the subnet's directed broadcast — so a route override that has already
// asked IsLocalUnicast can call the half it needs and get the same decision.
func TestDefaultRouteLookupIsItsTwoHalves(t *testing.T) {
	loop := sim.New(1)
	net := link.NewNetwork(loop, "n", link.Ethernet())
	a := addNode(t, loop, net, "a", "10.0.0.1/24")
	a.host.AddDefaultRoute(ip.MustParseAddr("10.0.0.254"), a.ifc)
	group := ip.MustParseAddr("224.0.1.7")
	if err := a.host.JoinGroup(group); err != nil {
		t.Fatal(err)
	}
	a.host.AddLocalAddr(ip.MustParseAddr("36.135.0.9"))
	// The subnet's directed broadcast names the host too (IsLocalAddr), but
	// it is no unicast address of the host's: like the limited broadcast
	// and groups it goes on the wire.
	local := map[string]bool{"10.0.0.1": true, "127.0.0.1": true, "36.135.0.9": true}
	for _, d := range []string{"10.0.0.1", "127.0.0.1", "36.135.0.9", "10.0.0.255", "255.255.255.255", "224.0.1.7", "224.0.1.8", "10.0.0.9", "8.8.8.8"} {
		dst := ip.MustParseAddr(d)
		for _, bound := range []ip.Addr{ip.Unspecified, ip.MustParseAddr("10.0.0.1")} {
			got, err := a.host.DefaultRouteLookup(dst, bound)
			want, werr := a.host.TableRoute(dst, bound)
			if local[d] != a.host.IsLocalUnicast(dst) {
				t.Errorf("%s: IsLocalUnicast = %v", d, !local[d])
			}
			if local[d] {
				want, werr = a.host.LocalRoute(dst, bound), nil
				if want.Iface != a.host.Loopback() {
					t.Errorf("%s: LocalRoute leaves by %v, want the loopback", d, want.Iface)
				}
			}
			if got != want || (err == nil) != (werr == nil) {
				t.Errorf("%s bound %s: DefaultRouteLookup = %+v, %v; its half = %+v, %v", d, bound, got, err, want, werr)
			}
		}
	}
}

// TestDirectedBroadcastGoesOnTheWire: a datagram to the subnet's directed
// broadcast reaches a neighbour on the link, from the sender's interface
// address, and is not looped back to the sender.
func TestDirectedBroadcastGoesOnTheWire(t *testing.T) {
	loop := sim.New(1)
	net := link.NewNetwork(loop, "n", link.Ethernet())
	a := addNode(t, loop, net, "a", "10.0.0.1/24")
	b := addNode(t, loop, net, "b", "10.0.0.2/24")
	atA, atB := collect(a.host), collect(b.host)
	if err := a.host.Output(udpPacket("0.0.0.0", "10.0.0.255", "all")); err != nil {
		t.Fatal(err)
	}
	loop.RunFor(time.Second)
	if len(*atB) != 1 || (*atB)[0].Src != a.ifc.Addr() || string((*atB)[0].Payload) != "all" {
		t.Fatalf("neighbour received %d datagrams (%v), want one from %v", len(*atB), *atB, a.ifc.Addr())
	}
	if len(*atA) != 0 {
		t.Fatalf("sender looped back %d datagrams to itself", len(*atA))
	}
}
