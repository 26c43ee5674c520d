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
