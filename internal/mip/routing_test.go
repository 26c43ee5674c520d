package mip

import (
	"testing"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/transport"
)

// TestPolicyFlipTakesEffectOnNextPacket: after a run of tunneled sends to a
// correspondent, a Mobile Policy Table change for it routes the very next
// packet by the new policy — bare, from the care-of address.
func TestPolicyFlipTakesEffectOnNextPacket(t *testing.T) {
	w := newWorld(t, 77)
	served, lastFrom := w.udpEchoServer(9000)
	w.goForeign()
	careOf := w.mh.CareOf()
	if careOf.IsUnspecified() {
		t.Fatal("no care-of address after ConnectForeign")
	}

	sock, err := w.mhTS.UDP(ip.Unspecified, 0, func(transport.Datagram) {})
	if err != nil {
		t.Fatal(err)
	}
	chAddr := ip.MustParseAddr(wCHAddr)

	// Several tunneled sends under the default policy.
	for i := 0; i < 4; i++ {
		if err := sock.SendTo(chAddr, 9000, []byte("warm")); err != nil {
			t.Fatal(err)
		}
		w.run(2 * time.Second)
	}
	if *served != 4 {
		t.Fatalf("served %d warmup probes, want 4", *served)
	}
	if *lastFrom != w.mh.HomeAddr() {
		t.Fatalf("tunneled probe arrived from %v, want home address %v", *lastFrom, w.mh.HomeAddr())
	}
	encapBefore := w.mh.Tunnel().Stats().Encapsulated
	if encapBefore == 0 {
		t.Fatal("warmup traffic did not use the reverse tunnel")
	}

	// Mid-flow policy change: this correspondent is now local-role
	// (PolicyDirect — bare packets, care-of source, no tunnel).
	w.mh.Policy().SetHost(chAddr, PolicyDirect)

	// The very next packet must reflect the new policy.
	if err := sock.SendTo(chAddr, 9000, []byte("direct")); err != nil {
		t.Fatal(err)
	}
	w.run(2 * time.Second)
	if *served != 5 {
		t.Fatalf("served %d probes after policy change, want 5", *served)
	}
	if *lastFrom != careOf {
		t.Fatalf("post-change probe arrived from %v, want care-of %v — routed by the old policy", *lastFrom, careOf)
	}
	if got := w.mh.Tunnel().Stats().Encapsulated; got != encapBefore {
		t.Fatalf("post-change probe was still tunneled (encapsulated %d -> %d)", encapBefore, got)
	}
}

// TestHomeAgentBindingsOrderedAndFresh registers three mobile hosts in an
// order that is not their home-address order: Bindings() must sort by home
// address, and a slice it returned earlier must not change when a later
// registration lands.
func TestHomeAgentBindingsOrderedAndFresh(t *testing.T) {
	w := newWorld(t, 78)
	homes := []ip.Addr{{10, 1, 0, 30}, {10, 1, 0, 20}, {10, 1, 0, 25}}

	w.visitForeignA(homes[0])
	w.run(20 * time.Second)
	first := w.ha.Bindings()
	if len(first) != 1 || first[0].HomeAddr != homes[0] {
		t.Fatalf("bindings after the first registration: %v", first)
	}
	careOf := first[0].CareOf

	w.visitForeignA(homes[1])
	w.visitForeignA(homes[2])
	w.run(20 * time.Second)
	all := w.ha.Bindings()
	want := []ip.Addr{homes[1], homes[2], homes[0]}
	if len(all) != len(want) {
		t.Fatalf("HA has %d bindings, want %d", len(all), len(want))
	}
	for i, b := range all {
		if b.HomeAddr != want[i] {
			t.Fatalf("binding %d is for %v, want %v (home-address order)", i, b.HomeAddr, want[i])
		}
	}
	if len(first) != 1 || first[0].HomeAddr != homes[0] || first[0].CareOf != careOf {
		t.Fatalf("slice returned earlier was overwritten: %v", first)
	}
}
