package mosquitonet

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"mosquitonet/internal/capture"
)

// TestWorldEndToEnd drives the public API the way the quickstart example
// does: build an internetwork, attach the mobile-IP entities, move the
// mobile host, and verify traffic follows it.
func TestWorldEndToEnd(t *testing.T) {
	w := NewWorld(7)
	home, err := w.AddSubnet("home", "10.1.0.0/24", Ethernet())
	if err != nil {
		t.Fatal(err)
	}
	café, err := w.AddSubnet("cafe", "10.2.0.0/24", Ethernet())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddSubnet("cafe", "10.3.0.0/24", Ethernet()); err == nil {
		t.Fatal("duplicate subnet accepted")
	}

	ha, err := home.HomeAgent(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := café.DHCP(100, 120); err != nil {
		t.Fatal(err)
	}
	ch, err := café.Host("ch", 50)
	if err != nil {
		t.Fatal(err)
	}

	mn, err := w.MobileHost("laptop", home, 7, ha.Addr())
	if err != nil {
		t.Fatal(err)
	}
	eth0, err := mn.WiredInterface("eth0", home)
	if err != nil {
		t.Fatal(err)
	}
	eth1, err := mn.WiredInterface("eth1", café)
	if err != nil {
		t.Fatal(err)
	}

	// Start at home.
	homeDone := false
	mn.MH.ConnectHome(eth0, home.Gateway, func(err error) {
		if err != nil {
			t.Errorf("ConnectHome: %v", err)
		}
		homeDone = true
	})
	w.Run(5 * time.Second)
	if !homeDone || !mn.MH.AtHome() {
		t.Fatal("did not attach at home")
	}

	// Echo server on the correspondent.
	var served int
	var lastFrom Addr
	var srv *UDPSocket
	srv, err = ch.TS.UDP(Unspecified, 7, func(d Datagram) {
		served++
		lastFrom = d.From
		srv.SendTo(d.From, d.FromPort, d.Payload)
	})
	if err != nil {
		t.Fatal(err)
	}

	// Move to the café and talk to the correspondent.
	moved := false
	mn.MH.ColdSwitch(eth1, func(err error) {
		if err != nil {
			t.Errorf("ColdSwitch: %v", err)
		}
		moved = true
	})
	w.Run(15 * time.Second)
	if !moved || mn.MH.AtHome() {
		t.Fatal("move failed")
	}
	if !café.Prefix.Contains(mn.MH.CareOf()) {
		t.Fatalf("care-of %v not on the café subnet", mn.MH.CareOf())
	}

	echoed := 0
	cli, err := mn.TS.UDP(Unspecified, 0, func(Datagram) { echoed++ })
	if err != nil {
		t.Fatal(err)
	}
	cli.SendTo(ch.Addr, 7, []byte("hello from the road"))
	w.Run(5 * time.Second)
	if served != 1 || echoed != 1 {
		t.Fatalf("served=%d echoed=%d", served, echoed)
	}
	if lastFrom != mn.MH.HomeAddr() {
		t.Fatalf("correspondent saw %v, want the home address", lastFrom)
	}

	// Radio-style subnet via StaticInterface.
	field, err := w.AddSubnet("field", "10.9.0.0/24", Radio())
	if err != nil {
		t.Fatal(err)
	}
	strip, err := mn.StaticInterface("strip0", field, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	mnMoved := false
	mn.MH.ColdSwitch(strip, func(err error) {
		if err != nil {
			t.Errorf("radio switch: %v", err)
		}
		mnMoved = true
	})
	w.Run(20 * time.Second)
	if !mnMoved {
		t.Fatal("radio switch failed")
	}
	cli.SendTo(ch.Addr, 7, []byte("over the air"))
	w.Run(10 * time.Second)
	if served != 2 {
		t.Fatal("radio-path traffic failed")
	}

	// MoveInterface carries the wired card elsewhere.
	mn.MoveInterface(eth1, home)
	if eth1.Iface().Device().Network() != home.Net {
		t.Fatal("MoveInterface did not reattach")
	}
}

func TestWorldBadInputs(t *testing.T) {
	w := NewWorld(1)
	if _, err := w.AddSubnet("x", "not-cidr", Ethernet()); err == nil {
		t.Fatal("bad CIDR accepted")
	}
	sn, err := w.AddSubnet("x", "10.0.0.0/30", Ethernet())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sn.Host("h", 99); err == nil {
		t.Fatal("out-of-range host accepted")
	}

	// An address is given out once: #1 is the router's, and every builder
	// that places something refuses a number already held, naming the holder.
	lan, err := w.AddSubnet("lan", "10.1.0.0/24", Ethernet())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lan.Host("h", 1); err == nil || !strings.Contains(err.Error(), "router") {
		t.Fatalf("host at the router's #1: err = %v, want one naming the router", err)
	}
	if _, err := lan.Host("a", 9); err != nil {
		t.Fatal(err)
	}
	mn, err := w.MobileHost("mh", lan, 7, lan.Gateway)
	if err != nil {
		t.Fatal(err)
	}
	for what, build := range map[string]func() error{
		"host":           func() error { _, err := lan.Host("b", 9); return err },
		"dhcp server":    func() error { _, err := lan.DHCP(10, 20); return err },
		"home agent":     func() error { _, err := lan.HomeAgent(9); return err },
		"foreign agent":  func() error { _, err := lan.ForeignAgent(9); return err },
		"home address":   func() error { _, err := w.MobileHost("mh2", lan, 9, lan.Gateway); return err },
		"static address": func() error { _, err := mn.StaticInterface("strip0", lan, 9, true); return err },
	} {
		if err := build(); err == nil || !strings.Contains(err.Error(), "is already a's") {
			t.Errorf("%s at a's #9: err = %v, want one naming a", what, err)
		}
	}
	if _, err := lan.Host("c", 7); err == nil || !strings.Contains(err.Error(), "is already mh's") {
		t.Errorf("host at mh's home address: err = %v, want one naming mh", err)
	}
}

// TestDNSNameStableAcrossMoves demonstrates the reason MosquitoNet keeps a
// permanent home address: a name resolved once stays valid through every
// move. The correspondent resolves the laptop's name, then keeps using the
// answer while the laptop roams.
func TestDNSNameStableAcrossMoves(t *testing.T) {
	w := NewWorld(3)
	home, _ := w.AddSubnet("home", "10.1.0.0/24", Ethernet())
	away, _ := w.AddSubnet("away", "10.2.0.0/24", Ethernet())
	ha, err := home.HomeAgent(2)
	if err != nil {
		t.Fatal(err)
	}
	away.DHCP(100, 120)

	laptop, _ := w.MobileHost("laptop", home, 7, ha.Addr())
	eth0, _ := laptop.WiredInterface("eth0", home)
	eth1, _ := laptop.WiredInterface("eth1", away)

	// DNS service on the home subnet knows the laptop by name.
	dnsHost, err := home.Host("dns", 53)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDNSServer(dnsHost.TS, DNSServerConfig{
		Zone: map[string]Addr{"laptop.mosquito.edu": laptop.MH.HomeAddr()},
	}); err != nil {
		t.Fatal(err)
	}

	ch, _ := away.Host("ch", 50)
	resolver := NewDNSResolver(ch.TS, dnsHost.Addr)

	laptop.MH.ConnectHome(eth0, home.Gateway, nil)
	w.Run(3 * time.Second)

	var resolved Addr
	resolver.Resolve("laptop.mosquito.edu", func(a Addr, err error) {
		if err != nil {
			t.Errorf("resolve: %v", err)
		}
		resolved = a
	})
	w.Run(3 * time.Second)
	if resolved != laptop.MH.HomeAddr() {
		t.Fatalf("resolved %v", resolved)
	}

	// Reach the laptop by its resolved name, at home and then away.
	got := 0
	laptop.TS.UDP(Unspecified, 4000, func(Datagram) { got++ })
	chSock, _ := ch.TS.UDP(Unspecified, 0, nil)
	chSock.SendTo(resolved, 4000, []byte("at home"))
	w.Run(3 * time.Second)

	laptop.MH.ColdSwitch(eth1, nil)
	w.Run(10 * time.Second)
	if laptop.MH.AtHome() {
		t.Fatal("move failed")
	}
	chSock.SendTo(resolved, 4000, []byte("still the same name"))
	w.Run(3 * time.Second)
	if got != 2 {
		t.Fatalf("delivered %d of 2 via the resolved name", got)
	}
}

// TestForeignAgentAndCapturePublicAPI drives the foreign-agent extension
// through the façade with a packet capture attached, verifying both the
// protocol flow and the decoder see the expected messages.
func TestForeignAgentAndCapturePublicAPI(t *testing.T) {
	w := NewWorld(9)
	home, _ := w.AddSubnet("home", "10.1.0.0/24", Ethernet())
	visited, _ := w.AddSubnet("visited", "10.2.0.0/24", Ethernet())
	ha, err := home.HomeAgent(2)
	if err != nil {
		t.Fatal(err)
	}
	fa, err := visited.ForeignAgent(2)
	if err != nil {
		t.Fatal(err)
	}

	var lines []string
	for _, n := range []*Network{visited.Net, home.Net} {
		capture.Tap(w.Loop, n, func(e capture.Entry) { lines = append(lines, e.Line) })
	}
	find := func(substr string) bool {
		for _, l := range lines {
			if strings.Contains(l, substr) {
				return true
			}
		}
		return false
	}

	laptop, _ := w.MobileHost("laptop", home, 7, ha.Addr())
	wlan, _ := laptop.WiredInterface("wlan0", visited)

	// Register through the agent, which keeps advertising meanwhile.
	done := false
	var regErr error
	laptop.MH.ConnectViaForeignAgent(wlan, fa.Addr(), func(err error) { regErr, done = err, true })
	w.Run(15 * time.Second)
	if !done || regErr != nil {
		t.Fatalf("FA attach: done=%v err=%v", done, regErr)
	}
	if b, ok := ha.Binding(laptop.MH.HomeAddr()); !ok || b.CareOf != fa.Addr() {
		t.Fatalf("binding %+v ok=%v", b, ok)
	}

	// The capture decoded the protocol conversation.
	if !find("mip agent-advert") {
		t.Fatalf("no advertisements captured:\n%s", strings.Join(lines, "\n"))
	}
	if !find("mip reg-request") {
		t.Fatal("no registration request captured")
	}
	if !find("mip reg-reply accepted") {
		t.Fatal("no accepted reply captured")
	}

	// Traffic through the agent shows up as nested IP-in-IP on the wire.
	ch, _ := home.Host("ch", 9)
	got := 0
	laptop.TS.UDP(Unspecified, 4000, func(Datagram) { got++ })
	sock, _ := ch.TS.UDP(Unspecified, 0, nil)
	sock.SendTo(laptop.MH.HomeAddr(), 4000, []byte("via the agent"))
	w.Run(5 * time.Second)
	if got != 1 {
		t.Fatal("traffic did not reach the visitor")
	}
	if !find("ipip {") {
		t.Fatal("no tunneled packet captured")
	}
}

// TestWorldCollectedWithoutClose builds the paper's Figure-5 internetwork two
// hundred times with NewWorld — home, department and radio subnets, a home
// agent, DHCP, a correspondent, the mobile host attached at home — and drops
// each. World has no Close and needs none: the registry, packet log, tracer
// and host slabs hang off the world's loop and go with it.
func TestWorldCollectedWithoutClose(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 200 worlds; skipped in -short")
	}
	liveHeap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	base := liveHeap()
	for i := 0; i < 200; i++ {
		w := NewWorld(int64(i))
		home, err := w.AddSubnet("home", "36.135.0.0/16", Ethernet())
		must(err)
		dept, err := w.AddSubnet("dept", "36.8.0.0/16", Ethernet())
		must(err)
		radio, err := w.AddSubnet("radio", "36.134.0.0/16", Radio())
		must(err)
		ha, err := home.HomeAgent(2)
		must(err)
		_, err = dept.DHCP(100, 150)
		must(err)
		_, err = dept.Host("ch", 50)
		must(err)
		mn, err := w.MobileHost("mh", home, 7, ha.Addr())
		must(err)
		eth, err := mn.WiredInterface("eth0", home)
		must(err)
		_, err = mn.StaticInterface("strip0", radio, 7, true)
		must(err)
		mn.MH.ConnectHome(eth, home.Gateway, func(err error) { must(err) })
		w.Run(5 * time.Second)
		if !mn.MH.AtHome() {
			t.Fatal("did not attach at home")
		}
	}
	// One such world that stays reachable holds some 80 KB.
	const limit = 2 << 20
	if grown := int64(liveHeap()) - int64(base); grown > limit {
		t.Errorf("heap grew %d bytes across 200 built and dropped worlds, want under %d", grown, limit)
	}
}
