package mip

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/stack"
	"mosquitonet/internal/transport"
)

func TestRegistrationLifecycle(t *testing.T) {
	w := newWorld(t, 1)
	w.goForeign()

	// The binding is installed with the DHCP-acquired care-of address.
	b, ok := w.ha.Binding(ip.MustParseAddr(wHomeAddr))
	if !ok {
		t.Fatal("no binding after registration")
	}
	if !ip.MustParsePrefix("10.2.0.0/24").Contains(b.CareOf) {
		t.Fatalf("care-of %v not on foreignA", b.CareOf)
	}
	if w.mh.CareOf() != b.CareOf {
		t.Fatalf("MH care-of %v vs binding %v", w.mh.CareOf(), b.CareOf)
	}
	if w.mh.AtHome() {
		t.Fatal("MH thinks it is at home")
	}

	// Returning home deregisters and clears the binding.
	w.goHome()
	if _, ok := w.ha.Binding(ip.MustParseAddr(wHomeAddr)); ok {
		t.Fatal("binding survived deregistration")
	}
	if !w.mh.AtHome() || w.mh.Registered() {
		t.Fatal("MH state wrong after returning home")
	}
	st := w.ha.Stats()
	if st.Accepted == 0 || st.Deregistrations != 1 {
		t.Fatalf("HA stats: %+v", st)
	}
}

func TestTrafficAtHomeIsDirect(t *testing.T) {
	w := newWorld(t, 1)
	done := false
	w.mh.ConnectHome(w.eth0, ip.MustParseAddr("10.1.0.1"), func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	})
	w.run(5 * time.Second)
	if !done {
		t.Fatal("ConnectHome never completed")
	}

	served, lastFrom := w.udpEchoServer(7)
	var echoed int
	cli, _ := w.mhTS.UDP(ip.Unspecified, 0, func(transport.Datagram) { echoed++ })
	cli.SendTo(ip.MustParseAddr(wCHAddr), 7, []byte("hi"))
	w.run(5 * time.Second)
	if *served != 1 || echoed != 1 {
		t.Fatalf("served=%d echoed=%d", *served, echoed)
	}
	if *lastFrom != ip.MustParseAddr(wHomeAddr) {
		t.Fatalf("CH saw source %v", *lastFrom)
	}
	if w.ha.Tunnel().Stats().Encapsulated != 0 {
		t.Fatal("home traffic went through the home agent tunnel")
	}
}

func TestBidirectionalTunnelTraffic(t *testing.T) {
	w := newWorld(t, 1)
	w.goForeign()

	served, lastFrom := w.udpEchoServer(7)
	var echoed int
	cli, _ := w.mhTS.UDP(ip.Unspecified, 0, func(transport.Datagram) { echoed++ })
	for i := 0; i < 5; i++ {
		cli.SendTo(ip.MustParseAddr(wCHAddr), 7, []byte("ping"))
		w.run(time.Second)
	}
	if *served != 5 || echoed != 5 {
		t.Fatalf("served=%d echoed=%d", *served, echoed)
	}
	// The correspondent host must only ever see the home address.
	if *lastFrom != ip.MustParseAddr(wHomeAddr) {
		t.Fatalf("CH saw source %v, want the home address", *lastFrom)
	}
	// Both directions traversed the tunnel.
	if w.mh.Tunnel().Stats().Encapsulated < 5 {
		t.Fatalf("MH encapsulated %d", w.mh.Tunnel().Stats().Encapsulated)
	}
	if w.mh.Tunnel().Stats().Decapsulated < 5 {
		t.Fatalf("MH decapsulated %d", w.mh.Tunnel().Stats().Decapsulated)
	}
	if w.ha.Tunnel().Stats().Encapsulated < 5 || w.ha.Tunnel().Stats().Decapsulated < 5 {
		t.Fatalf("HA tunnel stats: %+v", w.ha.Tunnel().Stats())
	}
}

// TestCorrespondentInitiatedTraffic: a CH that starts the conversation
// reaches the mobile host through proxy ARP interception and the tunnel.
func TestCorrespondentInitiatedTraffic(t *testing.T) {
	w := newWorld(t, 1)
	w.goForeign()

	var got []byte
	w.mhTS.UDP(ip.Unspecified, 2000, func(d transport.Datagram) { got = append([]byte(nil), d.Payload...) })
	chSock, _ := w.ch.UDP(ip.Unspecified, 0, nil)
	chSock.SendTo(ip.MustParseAddr(wHomeAddr), 2000, []byte("find the mobile host"))
	w.run(5 * time.Second)
	if string(got) != "find the mobile host" {
		t.Fatalf("MH got %q", got)
	}
}

// TestStreamSurvivesMove is the paper's headline property: an established
// connection continues across a network switch without application help.
func TestStreamSurvivesMove(t *testing.T) {
	w := newWorld(t, 1)
	w.goForeign()

	var rcvdAtCH bytes.Buffer
	var srvConn *transport.Conn
	w.ch.Listen(ip.Unspecified, 5001, func(c *transport.Conn) {
		srvConn = c
		c.OnData = func(b []byte) { rcvdAtCH.Write(b) }
	})
	conn, err := w.mhTS.Connect(ip.Unspecified, ip.MustParseAddr(wCHAddr), 5001)
	if err != nil {
		t.Fatal(err)
	}
	w.run(5 * time.Second)
	if !conn.Established() {
		t.Fatal("stream not established")
	}
	la, _ := conn.LocalAddr()
	if la != ip.MustParseAddr(wHomeAddr) {
		t.Fatalf("stream bound to %v, want the home address", la)
	}

	conn.Write([]byte("before the move|"))
	w.run(5 * time.Second)

	// Move: eth1 hops from foreignA to foreignB (cold switch).
	w.eth1.Iface().Device().Detach()
	w.eth1.Iface().Device().Attach(w.forB)
	var regErr error
	moved := false
	w.mh.ColdSwitch(w.eth1, func(err error) { regErr, moved = err, true })
	w.run(15 * time.Second)
	if !moved || regErr != nil {
		t.Fatalf("move failed: %v", regErr)
	}
	if !ip.MustParsePrefix("10.3.0.0/24").Contains(w.mh.CareOf()) {
		t.Fatalf("care-of %v not on foreignB", w.mh.CareOf())
	}

	conn.Write([]byte("after the move"))
	w.run(15 * time.Second)
	if got := rcvdAtCH.String(); got != "before the move|after the move" {
		t.Fatalf("stream corrupted across move: %q", got)
	}
	// And the reverse direction still flows.
	var rcvdAtMH bytes.Buffer
	conn.OnData = func(b []byte) { rcvdAtMH.Write(b) }
	srvConn.Write([]byte("welcome to foreignB"))
	w.run(15 * time.Second)
	if rcvdAtMH.String() != "welcome to foreignB" {
		t.Fatalf("reverse direction broken: %q", rcvdAtMH.String())
	}
}

func TestTriangleRouteOptimization(t *testing.T) {
	w := newWorld(t, 1)
	w.goForeign()
	w.mh.Policy().SetHost(ip.MustParseAddr(wCHAddr), PolicyTriangle)

	served, lastFrom := w.udpEchoServer(7)
	var echoed int
	cli, _ := w.mhTS.UDP(ip.Unspecified, 0, func(transport.Datagram) { echoed++ })
	cli.SendTo(ip.MustParseAddr(wCHAddr), 7, []byte("direct"))
	w.run(5 * time.Second)

	if *served != 1 || echoed != 1 {
		t.Fatalf("served=%d echoed=%d", *served, echoed)
	}
	if *lastFrom != ip.MustParseAddr(wHomeAddr) {
		t.Fatalf("triangle packet source %v", *lastFrom)
	}
	// Outbound bypassed the tunnel; inbound still used it.
	if enc := w.mh.Tunnel().Stats().Encapsulated; enc != 0 {
		t.Fatalf("triangle route encapsulated %d packets", enc)
	}
	if dec := w.mh.Tunnel().Stats().Decapsulated; dec != 1 {
		t.Fatalf("reply did not come through the tunnel (dec=%d)", dec)
	}
}

func TestTransitFilterBreaksTriangleAndProbeFallsBack(t *testing.T) {
	w := newWorld(t, 1)
	// Ingress filter on the router: drop packets from foreignA whose
	// source is not local to it — the paper's transit-traffic rule.
	w.router.IfaceByName("r-foreignA").SetTransitFilter(true)
	w.goForeign()
	w.mh.Policy().SetHost(ip.MustParseAddr(wCHAddr), PolicyTriangle)

	served, _ := w.udpEchoServer(7)
	cli, _ := w.mhTS.UDP(ip.Unspecified, 0, nil)
	cli.SendTo(ip.MustParseAddr(wCHAddr), 7, []byte("blocked"))
	w.run(5 * time.Second)
	if *served != 0 {
		t.Fatal("transit filter did not block the triangle route")
	}

	// Probe: detects the failure and reverts the policy to tunneling.
	var probeOK *bool
	w.mh.ProbeTriangle(ip.MustParseAddr(wCHAddr), 2*time.Second, func(ok bool) { probeOK = &ok })
	w.run(10 * time.Second)
	if probeOK == nil || *probeOK {
		t.Fatalf("probe should have failed (got %v)", probeOK)
	}
	if w.mh.Policy().Lookup(ip.MustParseAddr(wCHAddr)) != PolicyTunnel {
		t.Fatal("policy not reverted to tunnel")
	}
	cli.SendTo(ip.MustParseAddr(wCHAddr), 7, []byte("tunneled"))
	w.run(5 * time.Second)
	if *served != 1 {
		t.Fatal("tunnel fallback did not deliver")
	}
}

func TestProbeTriangleSucceedsWithoutFilter(t *testing.T) {
	w := newWorld(t, 1)
	w.goForeign()
	var probeOK *bool
	w.mh.ProbeTriangle(ip.MustParseAddr(wCHAddr), 2*time.Second, func(ok bool) { probeOK = &ok })
	w.run(10 * time.Second)
	if probeOK == nil || !*probeOK {
		t.Fatal("probe should succeed on an unfiltered path")
	}
	if w.mh.Policy().Lookup(ip.MustParseAddr(wCHAddr)) != PolicyTriangle {
		t.Fatal("successful probe did not cache the triangle policy")
	}
}

func TestEncapDirectToSmartCorrespondent(t *testing.T) {
	w := newWorld(t, 1)
	smart := MakeSmartCorrespondent(w.ch.Host())
	w.goForeign()
	w.mh.Policy().SetHost(ip.MustParseAddr(wCHAddr), PolicyEncapDirect)

	served, lastFrom := w.udpEchoServer(7)
	cli, _ := w.mhTS.UDP(ip.Unspecified, 0, nil)
	cli.SendTo(ip.MustParseAddr(wCHAddr), 7, []byte("encapsulated direct"))
	w.run(5 * time.Second)

	if *served != 1 {
		t.Fatal("smart CH did not receive the packet")
	}
	if *lastFrom != ip.MustParseAddr(wHomeAddr) {
		t.Fatalf("inner source %v", *lastFrom)
	}
	if smart.Stats().Decapsulated != 1 {
		t.Fatalf("smart CH decapsulated %d", smart.Stats().Decapsulated)
	}
	// The home agent's tunnel carried only the reply (CH->home->tunnel).
	if w.ha.Tunnel().Stats().Decapsulated != 0 {
		t.Fatal("outbound packet went through the home agent")
	}
}

// TestOneVIFTunnelsToTheNextHop: away from home, the tunnel policy and
// encapsulated-direct share the host's one VIF, vif0; the route decision's
// next hop is the tunnel's far end, so the outer packet goes care-of -> home
// agent for the first and care-of -> correspondent for the second, and the
// one endpoint counts both.
func TestOneVIFTunnelsToTheNextHop(t *testing.T) {
	w := newWorld(t, 1)
	MakeSmartCorrespondent(w.ch.Host())
	w.goForeign()
	careOf, ch := w.mh.CareOf(), ip.MustParseAddr(wCHAddr)
	var outerDst []ip.Addr // IP-in-IP datagrams the mobile host put on the wire
	w.forA.AddTap(func(_ *link.Device, f *link.Frame) {
		if f.Type != link.EtherTypeIPv4 {
			return
		}
		if pkt, err := ip.Unmarshal(f.Payload); err == nil && pkt.Protocol == ip.ProtoIPIP && pkt.Src == careOf {
			outerDst = append(outerDst, pkt.Dst)
		}
	})
	served, _ := w.udpEchoServer(7)
	cli, _ := w.mhTS.UDP(ip.Unspecified, 0, nil)
	cli.SendTo(ch, 7, []byte("tunnel"))
	w.run(time.Second)
	w.mh.Policy().SetHost(ch, PolicyEncapDirect)
	cli.SendTo(ch, 7, []byte("encap-direct"))
	w.run(time.Second)

	if want := []ip.Addr{ip.MustParseAddr(wHAAddr), ch}; !slices.Equal(outerDst, want) {
		t.Errorf("outer destinations from %v: %v, want %v", careOf, outerDst, want)
	}
	if *served != 2 {
		t.Errorf("correspondent served %d datagrams, want 2", *served)
	}
	if enc := w.mh.Tunnel().Stats().Encapsulated; enc != 2 {
		t.Errorf("tunnel encapsulated %d, want 2", enc)
	}
	var vifs []string
	for _, ifc := range w.mh.Host().Ifaces() {
		if ifc.IsVirtual() && ifc.Name() != "lo" {
			vifs = append(vifs, ifc.Name())
		}
	}
	if !slices.Equal(vifs, []string{"vif0"}) {
		t.Errorf("virtual interfaces %v, want [vif0]", vifs)
	}
}

// TestEncapDirectSurvivesTransitFilter: the variant optimization the paper
// describes for filtered networks — outer source is the local care-of, so
// the filter passes it.
func TestEncapDirectSurvivesTransitFilter(t *testing.T) {
	w := newWorld(t, 1)
	MakeSmartCorrespondent(w.ch.Host())
	w.router.IfaceByName("r-foreignA").SetTransitFilter(true)
	w.goForeign()
	w.mh.Policy().SetHost(ip.MustParseAddr(wCHAddr), PolicyEncapDirect)

	served, _ := w.udpEchoServer(7)
	cli, _ := w.mhTS.UDP(ip.Unspecified, 0, nil)
	cli.SendTo(ip.MustParseAddr(wCHAddr), 7, []byte("through the filter"))
	w.run(5 * time.Second)
	if *served != 1 {
		t.Fatal("encap-direct packet blocked by transit filter")
	}
}

func TestLocalRoleWhileAway(t *testing.T) {
	w := newWorld(t, 1)
	w.goForeign()
	careOf := w.mh.CareOf()

	// A host on the foreign network pings the care-of address.
	probe, _ := mkHost(w.loop, w.forA, "netmgmt", "10.2.0.3/24", "10.2.0.1")
	var res stack.PingResult
	done := false
	probe.Host().ICMP().Ping(careOf, ip.Unspecified, 8, 2*time.Second, func(r stack.PingResult) {
		res, done = r, true
	})
	w.run(5 * time.Second)
	if !done || res.TimedOut {
		t.Fatal("MH did not answer a foreign-network management ping")
	}
	if res.From != careOf {
		t.Fatalf("ping answered from %v, want the care-of address", res.From)
	}

	// A socket bound to the care-of address is outside mobile IP: its
	// traffic goes direct with the care-of source.
	var fromSeen ip.Addr
	probeSock, _ := probe.UDP(ip.Unspecified, 9999, func(d transport.Datagram) { fromSeen = d.From })
	_ = probeSock
	local, err := w.mhTS.UDP(careOf, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	local.SendTo(ip.MustParseAddr("10.2.0.3"), 9999, []byte("local role"))
	w.run(2 * time.Second)
	if fromSeen != careOf {
		t.Fatalf("local-role source %v, want %v", fromSeen, careOf)
	}
	if w.mh.Tunnel().Stats().Encapsulated != 0 {
		t.Fatal("local-role packet was tunneled")
	}
}

// visitForeignA adds one more mobile host, home on 10.1.0.0/24 at home,
// and connects it to foreignA; the caller runs the loop to let it register.
func (w *world) visitForeignA(home ip.Addr) *MobileHost {
	w.t.Helper()
	h := stack.NewHost(w.loop, "mh2", stack.Config{})
	ts := transport.NewStack(h)
	m := NewMobileHost(ts, MobileHostConfig{
		HomeAddr:   home,
		HomePrefix: ip.MustParsePrefix("10.1.0.0/24"),
		HomeAgent:  ip.MustParseAddr(wHAAddr),
		Lifetime:   time.Minute,
	})
	dev := link.NewDevice(w.loop, "mh2-eth0", 0, 0)
	dev.Attach(w.forA)
	mi, err := m.AddInterface("eth0", dev, false, nil)
	if err != nil {
		w.t.Fatal(err)
	}
	m.ConnectForeign(mi, nil)
	return m
}

func TestMultipleMobileHosts(t *testing.T) {
	w := newWorld(t, 1)
	// Three more mobile hosts, all home on 10.1.0.0/24, visiting foreignA.
	var mhs []*MobileHost
	for i := 0; i < 3; i++ {
		mhs = append(mhs, w.visitForeignA(ip.Addr{10, 1, 0, byte(20 + i)}))
	}
	w.run(20 * time.Second)
	for i, m := range mhs {
		if !m.Registered() {
			t.Fatalf("mobile host %d not registered", i)
		}
	}
	if got := len(w.ha.Bindings()); got != 3 {
		t.Fatalf("HA has %d bindings, want 3", got)
	}
	// Care-of addresses must be distinct (DHCP) and each host reachable.
	seen := map[ip.Addr]bool{}
	for _, b := range w.ha.Bindings() {
		if seen[b.CareOf] {
			t.Fatalf("care-of %v assigned twice", b.CareOf)
		}
		seen[b.CareOf] = true
	}
}

func TestBindingExpiryWithoutRenewal(t *testing.T) {
	w := newWorld(t, 1)
	w.goForeign()
	home := ip.MustParseAddr(wHomeAddr)
	if _, ok := w.ha.Binding(home); !ok {
		t.Fatal("no binding")
	}
	// Kill the mobile host's connectivity so renewals stop.
	w.mh.Disconnect(w.eth1)
	w.run(3 * time.Minute) // lifetime 60s
	if _, ok := w.ha.Binding(home); ok {
		t.Fatal("binding never expired")
	}
	if w.ha.Stats().Expired == 0 {
		t.Fatal("expiry not counted")
	}
	if w.ha.Tunnel().Iface().ARP() != nil {
		t.Fatal("unexpected arp on vif")
	}
}

func TestRenewalKeepsBindingAlive(t *testing.T) {
	w := newWorld(t, 1)
	w.goForeign()
	w.run(5 * time.Minute) // several lifetimes
	if _, ok := w.ha.Binding(ip.MustParseAddr(wHomeAddr)); !ok {
		t.Fatal("binding lost despite renewals")
	}
	if w.mh.Stats().Renewals < 3 {
		t.Fatalf("renewals = %d", w.mh.Stats().Renewals)
	}
}

func TestRegistrationDenied(t *testing.T) {
	w := newWorld(t, 1)
	// The agent no longer serves the mobile's home subnet.
	w.ha.cfg.HomePrefix = ip.MustParsePrefix("10.9.0.0/16")
	var regErr error
	done := false
	w.mh.ConnectForeign(w.eth1, func(err error) { regErr, done = err, true })
	w.run(10 * time.Second)
	if !done || !errors.Is(regErr, ErrRegistrationDenied) {
		t.Fatalf("err = %v", regErr)
	}
	if w.mh.Registered() {
		t.Fatal("MH believes it is registered after denial")
	}
	if w.ha.Stats().Denied == 0 {
		t.Fatal("denial not counted")
	}
}

func TestRegistrationTimeoutWhenHAUnreachable(t *testing.T) {
	w := newWorld(t, 1)
	// Take the home agent off the network entirely.
	for _, ifc := range w.ha.host.Ifaces() {
		if ifc.Device() != nil {
			ifc.Device().BringDown()
		}
	}
	var regErr error
	done := false
	w.mh.ConnectForeign(w.eth1, func(err error) { regErr, done = err, true })
	w.run(time.Minute)
	if !done || !errors.Is(regErr, ErrRegistrationTimeout) {
		t.Fatalf("err = %v done=%v", regErr, done)
	}
	if w.mh.Stats().RegTimeouts != 1 {
		t.Fatal("timeout not counted")
	}
}

func TestRegistrationRetryRecovers(t *testing.T) {
	w := newWorld(t, 1)
	// The home agent drops off the net briefly; the first request is lost
	// but a retransmission lands.
	dev := w.ha.cfg.HomeIface.Device()
	dev.BringDown()
	w.loop.Schedule(2500*time.Millisecond, func() { dev.BringUp(nil) })
	var regErr error
	done := false
	w.mh.ConnectForeign(w.eth1, func(err error) { regErr, done = err, true })
	w.run(time.Minute)
	if !done || regErr != nil {
		t.Fatalf("registration did not recover: %v", regErr)
	}
}

func TestHotSwitchNoLoss(t *testing.T) {
	w := newWorld(t, 1)
	w.goForeign()

	// Continuous stream from the CH to the MH.
	received := 0
	w.mhTS.UDP(ip.Unspecified, 3000, func(transport.Datagram) { received++ })
	chSock, _ := w.ch.UDP(ip.Unspecified, 0, nil)
	stop := false
	var tick func()
	tick = func() {
		if stop {
			return
		}
		chSock.SendTo(ip.MustParseAddr(wHomeAddr), 3000, []byte("x"))
		w.loop.Schedule(50*time.Millisecond, tick)
	}
	w.loop.Schedule(0, tick)
	w.run(time.Second)

	// Prepare a second interface on foreignB, then hot switch.
	eth2dev := link.NewDevice(w.loop, "mh-eth2", 0, 0)
	eth2dev.Attach(w.forB)
	eth2, err := w.mh.AddInterface("eth2", eth2dev, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	eth2dev.BringUp(nil)
	prepared := false
	w.mh.Prepare(eth2, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		prepared = true
	})
	w.run(5 * time.Second)
	if !prepared {
		t.Fatal("Prepare never finished")
	}
	switched := false
	w.mh.HotSwitch(eth2, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		switched = true
	})
	w.run(5 * time.Second)
	if !switched {
		t.Fatal("HotSwitch never finished")
	}
	if !ip.MustParsePrefix("10.3.0.0/24").Contains(w.mh.CareOf()) {
		t.Fatalf("care-of after hot switch: %v", w.mh.CareOf())
	}
	w.run(time.Second)
	stop = true
	w.run(time.Second)

	// ~7s of 50ms traffic: allow a couple of in-flight losses around the
	// binding change, no more (hot switching "usually no packet loss").
	sent := int(chSock.Sent)
	if received < sent-2 {
		t.Fatalf("hot switch lost %d of %d packets", sent-received, sent)
	}
	if w.mh.Stats().HotSwitches != 1 {
		t.Fatal("hot switch not counted")
	}
}

func TestSwitchAddressSameSubnet(t *testing.T) {
	w := newWorld(t, 1)
	w.goForeign()
	oldCareOf := w.mh.CareOf()
	newAddr := ip.MustParseAddr("10.2.0.200") // outside the DHCP pool

	done := false
	w.mh.SwitchAddress(newAddr, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	})
	w.run(5 * time.Second)
	if !done {
		t.Fatal("SwitchAddress never completed")
	}
	if w.mh.CareOf() != newAddr {
		t.Fatalf("care-of %v, want %v", w.mh.CareOf(), newAddr)
	}
	b, _ := w.ha.Binding(ip.MustParseAddr(wHomeAddr))
	if b.CareOf != newAddr {
		t.Fatalf("binding care-of %v", b.CareOf)
	}
	// Traffic still flows after the switch.
	served, _ := w.udpEchoServer(7)
	cli, _ := w.mhTS.UDP(ip.Unspecified, 0, nil)
	cli.SendTo(ip.MustParseAddr(wCHAddr), 7, []byte("post-switch"))
	w.run(5 * time.Second)
	if *served != 1 {
		t.Fatal("traffic broken after address switch")
	}
	if oldCareOf == newAddr {
		t.Fatal("test misconfigured: same address")
	}
	if w.mh.Stats().AddressSwitches != 1 {
		t.Fatal("address switch not counted")
	}
}

func TestHomeNeighborUsesProxyAfterDeparture(t *testing.T) {
	w := newWorld(t, 1)
	// Neighbor on the home subnet.
	nb, _ := mkHost(w.loop, w.homeNet, "neighbor", "10.1.0.9/24", "10.1.0.1")

	// MH starts at home and talks to the neighbor directly.
	homeDone := false
	w.mh.ConnectHome(w.eth0, ip.MustParseAddr("10.1.0.1"), func(error) { homeDone = true })
	w.run(5 * time.Second)
	if !homeDone {
		t.Fatal("ConnectHome never completed")
	}
	got := 0
	nb.UDP(ip.Unspecified, 7, func(transport.Datagram) { got++ })
	mhSock, _ := w.mhTS.UDP(ip.Unspecified, 0, nil)
	mhSock.SendTo(ip.MustParseAddr("10.1.0.9"), 7, []byte("direct"))
	w.run(2 * time.Second)
	if got != 1 {
		t.Fatal("at-home direct delivery failed")
	}

	// MH leaves for foreignA (cold switch off the home interface).
	moved := false
	w.mh.ColdSwitch(w.eth1, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		moved = true
	})
	w.run(15 * time.Second)
	if !moved {
		t.Fatal("move never completed")
	}

	// The neighbor (stale ARP voided by the HA's gratuitous ARP) sends to
	// the home address; the proxy intercepts and the tunnel delivers.
	atMH := 0
	w.mhTS.UDP(ip.Unspecified, 4000, func(transport.Datagram) { atMH++ })
	nbSock, _ := nb.UDP(ip.Unspecified, 0, nil)
	nbSock.SendTo(ip.MustParseAddr(wHomeAddr), 4000, []byte("via proxy"))
	w.run(5 * time.Second)
	if atMH != 1 {
		t.Fatal("neighbor's packet did not reach the departed MH")
	}
}

func TestOnCallbacks(t *testing.T) {
	w := newWorld(t, 1)
	var changes []LinkChange
	var regAddrs []ip.Addr
	dereg := 0
	w.mh.OnLinkChange = func(c LinkChange) { changes = append(changes, c) }
	w.mh.OnRegistered = func(a ip.Addr) { regAddrs = append(regAddrs, a) }
	w.mh.OnDeregistered = func() { dereg++ }

	w.goForeign()
	if len(changes) == 0 || changes[len(changes)-1].AtHome {
		t.Fatalf("link change not reported: %+v", changes)
	}
	if changes[len(changes)-1].Medium.Name != "ethernet" {
		t.Fatalf("medium not reported: %+v", changes[len(changes)-1])
	}
	if len(regAddrs) != 1 || regAddrs[0] != w.mh.CareOf() {
		t.Fatalf("OnRegistered: %v", regAddrs)
	}
	w.goHome()
	if dereg != 1 {
		t.Fatalf("OnDeregistered fired %d times", dereg)
	}
	if !changes[len(changes)-1].AtHome {
		t.Fatal("home link change not reported")
	}
}

func TestForeignAgentMode(t *testing.T) {
	w := newWorld(t, 1)
	// Foreign agent on foreignA.
	faTS, faIfc := mkHost(w.loop, w.forA, "fa", "10.2.0.4/24", "10.2.0.1")
	fa, err := NewForeignAgent(faTS, ForeignAgentConfig{Iface: faIfc, Tracer: w.tr})
	if err != nil {
		t.Fatal(err)
	}
	var regErr error
	done := false
	w.mh.ConnectViaForeignAgent(w.eth1, fa.Addr(), func(err error) { regErr, done = err, true })
	w.run(10 * time.Second)
	if !done || regErr != nil {
		t.Fatalf("FA registration: done=%v err=%v", done, regErr)
	}
	if !fa.HasVisitor(ip.MustParseAddr(wHomeAddr)) {
		t.Fatal("visitor list empty")
	}
	b, ok := w.ha.Binding(ip.MustParseAddr(wHomeAddr))
	if !ok || b.CareOf != fa.Addr() {
		t.Fatalf("binding care-of %v, want the FA address", b.CareOf)
	}

	// Traffic: CH -> home address -> HA tunnel -> FA decap -> on-link MH.
	served, lastFrom := w.udpEchoServer(7)
	cli, _ := w.mhTS.UDP(ip.Unspecified, 0, nil)
	cli.SendTo(ip.MustParseAddr(wCHAddr), 7, []byte("through the FA"))
	w.run(5 * time.Second)
	if *served != 1 {
		t.Fatal("MH->CH traffic failed in FA mode")
	}
	if *lastFrom != ip.MustParseAddr(wHomeAddr) {
		t.Fatalf("CH saw %v", *lastFrom)
	}
	if fa.Tunnel().Stats().Decapsulated == 0 {
		t.Fatal("FA never decapsulated")
	}
	st := fa.Stats()
	if st.RequestsRelayed == 0 || st.RepliesRelayed == 0 {
		t.Fatalf("relay stats: %+v", st)
	}
	if st.AdvertsSent == 0 {
		t.Fatal("no advertisements sent")
	}
}

func TestPreviousFAForwarding(t *testing.T) {
	w := newWorld(t, 1)
	faTS, faIfc := mkHost(w.loop, w.forA, "fa", "10.2.0.4/24", "10.2.0.1")
	fa, err := NewForeignAgent(faTS, ForeignAgentConfig{Iface: faIfc, Tracer: w.tr})
	if err != nil {
		t.Fatal(err)
	}
	done := false
	w.mh.ConnectViaForeignAgent(w.eth1, fa.Addr(), func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	})
	w.run(10 * time.Second)
	if !done {
		t.Fatal("FA attach failed")
	}

	// Move to foreignB with a collocated care-of address.
	w.eth1.Iface().Device().Detach()
	w.eth1.Iface().Device().Attach(w.forB)
	moved := false
	w.mh.ColdSwitch(w.eth1, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		moved = true
	})
	w.run(15 * time.Second)
	if !moved {
		t.Fatal("move failed")
	}
	w.mh.NotifyPreviousFA(fa.Addr(), w.mh.CareOf(), 30*time.Second)
	w.run(time.Second)

	// A straggler tunneled to the old FA (as if the HA had not yet seen
	// the new registration) must be re-tunneled to the new care-of.
	atMH := 0
	w.mhTS.UDP(ip.Unspecified, 4000, func(transport.Datagram) { atMH++ })
	inner := &ip.Packet{
		Header:  ip.Header{TTL: 62, Protocol: ip.ProtoUDP, Src: ip.MustParseAddr(wCHAddr), Dst: ip.MustParseAddr(wHomeAddr)},
		Payload: ip.MarshalUDP(ip.MustParseAddr(wCHAddr), ip.MustParseAddr(wHomeAddr), ip.UDPHeader{SrcPort: 9, DstPort: 4000}, []byte("straggler")),
	}
	outer, err := ip.Encapsulate(ip.MustParseAddr(wHAAddr), fa.Addr(), 64, 1, inner)
	if err != nil {
		t.Fatal(err)
	}
	w.ha.host.Output(outer)
	w.run(5 * time.Second)
	if atMH != 1 {
		t.Fatalf("straggler was not forwarded to the new care-of address\nFA stats: %+v\nFA tunnel: %+v\ntrace:\n%s",
			fa.Stats(), fa.Tunnel().Stats(), w.tr.String())
	}
	if fa.Stats().Forwarded == 0 {
		t.Fatal("FA forwarding not counted")
	}
}

func TestDoubleVisitToSameNetworkReusesAddress(t *testing.T) {
	w := newWorld(t, 1)
	w.goForeign()
	first := w.mh.CareOf()
	w.goHome()
	w.eth1.Iface().Device().Attach(w.forA)
	w.goForeign()
	if w.mh.CareOf() != first {
		t.Fatalf("DHCP address changed for the same client: %v -> %v", first, w.mh.CareOf())
	}
}

// TestActivateNotReady: a hot switch's activate step refuses an interface
// that was never prepared.
func TestActivateNotReady(t *testing.T) {
	w := newWorld(t, 1)
	var gotErr error
	done := false
	w.mh.HotSwitch(w.eth1, func(err error) { gotErr, done = err, true })
	w.run(time.Second)
	if !done || !errors.Is(gotErr, ErrIfaceNotReady) {
		t.Fatalf("err = %v", gotErr)
	}
	var swErr error
	w.mh.SwitchAddress(ip.MustParseAddr("10.2.0.200"), func(err error) { swErr = err })
	w.run(time.Second)
	if !errors.Is(swErr, ErrNoActiveIface) {
		t.Fatalf("SwitchAddress err = %v", swErr)
	}
}

// TestTunnelFragmentationAtMTU exercises the interaction the paper's
// 20-byte encapsulation overhead creates: a near-MTU datagram to the home
// address no longer fits once the home agent wraps it, so the tunnel path
// fragments and the mobile host reassembles before decapsulating.
func TestTunnelFragmentationAtMTU(t *testing.T) {
	w := newWorld(t, 1)
	w.goForeign()

	var got []byte
	w.mhTS.UDP(ip.Unspecified, 4000, func(d transport.Datagram) { got = append([]byte(nil), d.Payload...) })
	chSock, _ := w.ch.UDP(ip.Unspecified, 0, nil)

	payload := make([]byte, 1460) // inner packet 1488B; encapsulated 1508B > 1500 MTU
	for i := range payload {
		payload[i] = byte(i * 11)
	}
	chSock.SendTo(ip.MustParseAddr(wHomeAddr), 4000, payload)
	w.run(5 * time.Second)

	if !bytes.Equal(got, payload) {
		t.Fatalf("near-MTU datagram lost or corrupted through the tunnel (got %d bytes)", len(got))
	}
	if w.ha.host.Stats().FragmentsSent < 2 {
		t.Fatalf("home agent did not fragment: %+v", w.ha.host.Stats())
	}
	if w.mh.Host().Reassembler().Stats().Reassembled != 1 {
		t.Fatalf("mobile host did not reassemble: %+v", w.mh.Host().Reassembler().Stats())
	}
	// The reverse direction: the MH's reply is also encapsulated and must
	// fragment on the way back to the home agent.
	mhSock, _ := w.mhTS.UDP(ip.Unspecified, 0, nil)
	atCH := 0
	w.ch.UDP(ip.Unspecified, 5000, func(d transport.Datagram) {
		if len(d.Payload) == len(payload) {
			atCH++
		}
	})
	mhSock.SendTo(ip.MustParseAddr(wCHAddr), 5000, payload)
	w.run(5 * time.Second)
	if atCH != 1 {
		t.Fatal("reverse-tunnel near-MTU datagram lost")
	}
}

// TestReplayedRegistrationRejected verifies the identification check: a
// replayed (or stale) registration request must be denied and must not
// disturb the current binding.
func TestReplayedRegistrationRejected(t *testing.T) {
	w := newWorld(t, 1)
	w.goForeign()
	current, _ := w.ha.Binding(ip.MustParseAddr(wHomeAddr))

	// An attacker replays an old-looking request redirecting the home
	// address to an address it controls.
	attacker, _ := mkHost(w.loop, w.forA, "attacker", "10.2.0.66/24", "10.2.0.1")
	sock, err := attacker.UDP(ip.Unspecified, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	replay := &RegRequest{
		Lifetime:  60,
		HomeAddr:  ip.MustParseAddr(wHomeAddr),
		HomeAgent: ip.MustParseAddr(wHAAddr),
		CareOf:    ip.MustParseAddr("10.2.0.66"),
		ID:        current.ID - 1, // stale identification
	}
	sock.SendTo(ip.MustParseAddr(wHAAddr), Port, replay.Marshal())
	w.run(5 * time.Second)

	after, ok := w.ha.Binding(ip.MustParseAddr(wHomeAddr))
	if !ok || after.CareOf != current.CareOf {
		t.Fatalf("replay moved the binding: %+v", after)
	}
	if w.ha.Stats().Denied == 0 {
		t.Fatal("replay was not denied")
	}

	// Exact duplicate of the current registration is also rejected.
	dup := replay
	dup.ID = current.ID
	dup.CareOf = current.CareOf
	sock.SendTo(ip.MustParseAddr(wHAAddr), Port, dup.Marshal())
	w.run(5 * time.Second)
	if w.ha.Stats().Denied < 2 {
		t.Fatal("duplicate identification accepted")
	}
}

// TestMulticastLocalRole: a mobile host joins a multicast group via the
// foreign network (Section 5.2); group traffic flows in the local role and
// never touches the tunnel.
func TestMulticastLocalRole(t *testing.T) {
	w := newWorld(t, 1)
	w.goForeign()

	group := ip.MustParseAddr("224.0.1.7")
	if err := w.mh.Host().JoinGroup(group); err != nil {
		t.Fatal(err)
	}
	got := 0
	w.mhTS.UDP(ip.Unspecified, 6000, func(transport.Datagram) { got++ })

	// A host on the visited net multicasts.
	sender, _ := mkHost(w.loop, w.forA, "mcast-src", "10.2.0.9/24", "10.2.0.1")
	sender.Host().Routes().Add(stack.Route{Dst: ip.MustParsePrefix("224.0.0.0/4"), Iface: sender.Host().IfaceByName("eth0")})
	sock, _ := sender.UDP(ip.Unspecified, 0, nil)
	sock.SendTo(group, 6000, []byte("group news"))
	w.run(2 * time.Second)
	if got != 1 {
		t.Fatal("group traffic did not reach the mobile host")
	}

	// And the mobile host can send to the group without tunneling.
	w.mh.Host().Routes().Add(stack.Route{Dst: ip.MustParsePrefix("224.0.0.0/4"), Iface: w.eth1.Iface(), Metric: 5})
	atSender := 0
	sender.UDP(ip.Unspecified, 6001, func(transport.Datagram) { atSender++ })
	sender.Host().JoinGroup(group)
	mhSock, _ := w.mhTS.UDP(ip.Unspecified, 0, nil)
	before := w.mh.Tunnel().Stats().Encapsulated
	mhSock.SendTo(group, 6001, []byte("from the mh"))
	w.run(2 * time.Second)
	if atSender != 1 {
		t.Fatal("mobile host's group traffic not delivered")
	}
	if w.mh.Tunnel().Stats().Encapsulated != before {
		t.Fatal("group traffic was tunneled")
	}
}

// prepareSecondIface stages eth2 on foreignB — up, addressed, routed — for
// an additional binding beside whatever eth1 has registered.
func (w *world) prepareSecondIface() *ManagedIface {
	w.t.Helper()
	eth2dev := link.NewDevice(w.loop, "mh-eth2", 0, 0)
	eth2dev.Attach(w.forB)
	eth2, err := w.mh.AddInterface("eth2", eth2dev, false, nil)
	if err != nil {
		w.t.Fatal(err)
	}
	eth2dev.BringUp(nil)
	prepared := false
	w.mh.Prepare(eth2, func(err error) {
		if err != nil {
			w.t.Fatal(err)
		}
		prepared = true
	})
	w.run(10 * time.Second)
	if !prepared {
		w.t.Fatal("Prepare failed")
	}
	return eth2
}

// An additional binding is a registration exchange like any other: when
// it fails, the counters, the trace and the span say so. Before the two
// exchange machines were one, none of the four checks below held.
func TestAdditionalBindingFailuresAreAccounted(t *testing.T) {
	w := newWorld(t, 1)
	w.goForeign()
	eth2 := w.prepareSecondIface()
	w.ha.Crash()

	var regErr error
	w.mh.AddSimultaneousBinding(eth2.Addr(), func(err error) { regErr = err })
	// While the request is in flight, its socket hears a reply cut short.
	w.run(500 * time.Millisecond)
	chSock, _ := w.ch.UDP(ip.Unspecified, 0, nil)
	chSock.SendTo(eth2.Addr(), Port, (&RegReply{ID: 1}).Marshal()[:6])
	w.run(10 * time.Second)

	if !errors.Is(regErr, ErrRegistrationTimeout) {
		t.Fatalf("err = %v, want a registration timeout", regErr)
	}
	st := w.mh.Stats()
	if st.RegTimeouts != 1 {
		t.Errorf("RegTimeouts = %d, want 1", st.RegTimeouts)
	}
	if st.DropMalformed != 1 || st.DropStaleReply != 0 {
		t.Errorf("truncated reply: malformed=%d stale=%d, want 1 and 0", st.DropMalformed, st.DropStaleReply)
	}
	if _, ok := w.tr.Last(kRegTimeout); !ok {
		t.Errorf("no %s event recorded", kRegTimeout)
	}
	var result string
	for _, sp := range w.tr.FindSpans(kSpanRegAttempt) {
		if v, _ := sp.Attr("simultaneous"); v == "true" {
			result, _ = sp.Attr("result")
		}
	}
	if result != "timeout" {
		t.Errorf("additional binding's %s span has result %q, want timeout", kSpanRegAttempt, result)
	}
}

// TestSimultaneousBindings exercises the S-flag extension: with two
// interfaces up and both care-of addresses registered, the home agent
// duplicates traffic to both, and the stream survives the abrupt death of
// either interface with no re-registration at all.
func TestSimultaneousBindings(t *testing.T) {
	w := newWorld(t, 1)
	w.goForeign() // eth1 on foreignA, primary binding

	eth2 := w.prepareSecondIface()

	simDone := false
	w.mh.AddSimultaneousBinding(eth2.Addr(), func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		simDone = true
	})
	w.run(5 * time.Second)
	if !simDone {
		t.Fatal("simultaneous binding never confirmed")
	}
	b, _ := w.ha.Binding(ip.MustParseAddr(wHomeAddr))
	if len(b.Extras) != 1 {
		t.Fatalf("extras = %v", b.Extras)
	}

	// Traffic is duplicated: one datagram arrives twice (once per path).
	got := 0
	w.mhTS.UDP(ip.Unspecified, 4000, func(transport.Datagram) { got++ })
	chSock, _ := w.ch.UDP(ip.Unspecified, 0, nil)
	chSock.SendTo(ip.MustParseAddr(wHomeAddr), 4000, []byte("both paths"))
	w.run(3 * time.Second)
	if got != 2 {
		t.Fatalf("delivered %d copies, want 2", got)
	}
	if w.ha.Stats().Duplicated != 1 {
		t.Fatalf("HA duplicated %d", w.ha.Stats().Duplicated)
	}

	// The primary path dies abruptly; traffic keeps flowing via the other
	// binding with no re-registration.
	regsBefore := w.mh.Stats().Registrations
	w.eth1.Iface().Device().BringDown()
	chSock.SendTo(ip.MustParseAddr(wHomeAddr), 4000, []byte("one path left"))
	w.run(3 * time.Second)
	if got != 3 {
		t.Fatalf("delivery after path death: got=%d want 3", got)
	}
	if w.mh.Stats().Registrations != regsBefore {
		t.Fatal("an unexpected re-registration happened")
	}

	// A plain (non-S) registration collapses the set back to one binding.
	collapse := false
	w.mh.SwitchAddress(ip.MustParseAddr("10.2.0.200"), func(err error) { collapse = true })
	w.run(10 * time.Second)
	_ = collapse // eth1 is down; the switch may time out, which is fine here
}

// TestSimultaneousBindingRetained verifies that a plain registration drops
// extras while an S-flag one retains them.
func TestSimultaneousBindingCollapse(t *testing.T) {
	w := newWorld(t, 1)
	w.goForeign()
	careOf := w.mh.CareOf()

	// Fake second binding via the API against a second configured address
	// on the same interface is not possible; use foreignB instead.
	eth2dev := link.NewDevice(w.loop, "mh-eth2", 0, 0)
	eth2dev.Attach(w.forB)
	eth2, _ := w.mh.AddInterface("eth2", eth2dev, false, nil)
	eth2dev.BringUp(nil)
	w.mh.Prepare(eth2, nil)
	w.run(10 * time.Second)
	w.mh.AddSimultaneousBinding(eth2.Addr(), nil)
	w.run(5 * time.Second)
	b, _ := w.ha.Binding(ip.MustParseAddr(wHomeAddr))
	if len(b.Extras) != 1 || b.CareOf != eth2.Addr() {
		t.Fatalf("binding after S registration: %+v", b)
	}

	// Plain re-registration of the original care-of: extras are dropped.
	w.mh.SwitchAddress(careOf, nil) // same-subnet switch back to the DHCP address
	w.run(10 * time.Second)
	b, _ = w.ha.Binding(ip.MustParseAddr(wHomeAddr))
	if len(b.Extras) != 0 || b.CareOf != careOf {
		t.Fatalf("binding after plain registration: %+v", b)
	}
}

func TestPolicyDirectLocalRoleSending(t *testing.T) {
	w := newWorld(t, 1)
	w.goForeign()
	w.mh.Policy().SetHost(ip.MustParseAddr(wCHAddr), PolicyDirect)

	var from ip.Addr
	w.ch.UDP(ip.Unspecified, 7, func(d transport.Datagram) { from = d.From })
	cli, _ := w.mhTS.UDP(ip.Unspecified, 0, nil)
	cli.SendTo(ip.MustParseAddr(wCHAddr), 7, []byte("bare"))
	w.run(3 * time.Second)
	// Direct policy: care-of source, no encapsulation, no mobility.
	if from != w.mh.CareOf() {
		t.Fatalf("direct-policy source %v, want care-of %v", from, w.mh.CareOf())
	}
	if w.mh.Tunnel().Stats().Encapsulated != 0 {
		t.Fatal("direct policy used the tunnel")
	}
}

func TestHomeAgentDenialCodes(t *testing.T) {
	w := newWorld(t, 1)
	sender, _ := mkHost(w.loop, w.forA, "rogue", "10.2.0.77/24", "10.2.0.1")
	var replies []*RegReply
	replySock, err := sender.UDP(ip.Unspecified, 4343, func(d transport.Datagram) {
		r := new(RegReply)
		if UnmarshalRegReply(r, d.Payload) == nil {
			replies = append(replies, r)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	send := func(req *RegRequest) {
		replySock.SendTo(ip.MustParseAddr(wHAAddr), Port, req.Marshal())
		w.run(3 * time.Second)
	}

	// Home address outside the home prefix.
	send(&RegRequest{Lifetime: 60, HomeAddr: ip.MustParseAddr("99.9.9.9"),
		HomeAgent: ip.MustParseAddr(wHAAddr), CareOf: ip.MustParseAddr("10.2.0.77"), ID: 1})
	// Wrong home agent address.
	send(&RegRequest{Lifetime: 60, HomeAddr: ip.MustParseAddr(wHomeAddr),
		HomeAgent: ip.MustParseAddr("10.4.0.2"), CareOf: ip.MustParseAddr("10.2.0.77"), ID: 2})
	// Missing care-of address.
	send(&RegRequest{Lifetime: 60, HomeAddr: ip.MustParseAddr(wHomeAddr),
		HomeAgent: ip.MustParseAddr(wHAAddr), ID: 3})

	if len(replies) != 3 {
		t.Fatalf("got %d replies", len(replies))
	}
	want := []uint8{CodeDeniedBadHomeAddr, CodeDeniedBadRequest, CodeDeniedBadRequest}
	for i, r := range replies {
		if r.Code != want[i] {
			t.Errorf("reply %d: code %d (%s), want %d", i, r.Code, CodeString(r.Code), want[i])
		}
		if r.Accepted() {
			t.Errorf("reply %d accepted", i)
		}
	}
	if got := len(w.ha.Bindings()); got != 0 {
		t.Fatalf("denied requests installed %d bindings", got)
	}
}

func TestManagedIfaceAccessors(t *testing.T) {
	w := newWorld(t, 1)
	if w.eth1.Name() != "eth1" || w.eth1.Ready() {
		t.Fatal("accessors wrong before connect")
	}
	w.goForeign()
	if !w.eth1.Ready() || w.eth1.Addr().IsUnspecified() || w.eth1.Gateway() != ip.MustParseAddr("10.2.0.1") {
		t.Fatalf("accessors wrong after connect: %v %v", w.eth1.Addr(), w.eth1.Gateway())
	}
	if w.eth1.Iface() == nil {
		t.Fatal("Iface nil")
	}
	ifaces := w.mh.Interfaces()
	if len(ifaces) != 2 {
		t.Fatalf("Interfaces() = %d", len(ifaces))
	}
	if w.mh.Transport() != w.mhTS || w.mh.HomeAddr() != ip.MustParseAddr(wHomeAddr) {
		t.Fatal("MobileHost accessors wrong")
	}
}

func TestForeignAgentIgnoresWrongCareOf(t *testing.T) {
	w := newWorld(t, 1)
	faTS, faIfc := mkHost(w.loop, w.forA, "fa", "10.2.0.4/24", "10.2.0.1")
	fa, err := NewForeignAgent(faTS, ForeignAgentConfig{Iface: faIfc, Tracer: w.tr})
	if err != nil {
		t.Fatal(err)
	}
	// A request whose care-of is not this agent must not be relayed.
	sender, _ := mkHost(w.loop, w.forA, "mh2", "10.2.0.9/24", "10.2.0.1")
	sock, _ := sender.UDP(ip.Unspecified, 0, nil)
	req := &RegRequest{Lifetime: 60, HomeAddr: ip.MustParseAddr(wHomeAddr),
		HomeAgent: ip.MustParseAddr(wHAAddr), CareOf: ip.MustParseAddr("10.2.0.99"), ID: 5}
	sock.SendTo(fa.Addr(), Port, req.Marshal())
	w.run(3 * time.Second)
	if fa.Stats().RequestsRelayed != 0 {
		t.Fatal("FA relayed a request for a different care-of address")
	}
	if _, ok := w.ha.Binding(ip.MustParseAddr(wHomeAddr)); ok {
		t.Fatal("binding installed")
	}
}

// TestRetryAfterLostReplySucceeds is the regression test for a protocol
// bug: when the registration *reply* is lost, the retransmission must not
// be rejected as a replay. Each transmission carries a fresh
// identification (as in RFC 2002).
func TestRetryAfterLostReplySucceeds(t *testing.T) {
	w := newWorld(t, 1)
	var regErr error
	done := false
	w.mh.ConnectForeign(w.eth1, func(err error) { regErr, done = err, true })
	// Lose exactly the first registration reply: the home net's medium
	// drops every frame from the moment the home agent sends it until the
	// one frame that carries it is on the wire.
	for len(w.tr.Find("reg.reply.sent")) == 0 && w.loop.Step() {
	}
	prev := w.homeNet.SetLossProb(1)
	for tx := w.homeNet.Stats().Transmitted; w.homeNet.Stats().Transmitted == tx && w.loop.Step(); {
	}
	w.homeNet.SetLossProb(prev)
	w.run(30 * time.Second)
	dropped := len(w.tr.Find("reg.reply.sent")) - len(w.tr.Find("reg.reply.received"))
	if dropped != 1 {
		t.Fatalf("the medium lost %d replies", dropped)
	}
	if !done || regErr != nil {
		t.Fatalf("registration did not survive a lost reply: done=%v err=%v", done, regErr)
	}
	if _, ok := w.ha.Binding(ip.MustParseAddr(wHomeAddr)); !ok {
		t.Fatal("no binding")
	}
	// The retry consumed a fresh identification; the accepted one at the
	// HA must match the mobile host's latest.
	if w.ha.Stats().Denied != 0 {
		t.Fatalf("retransmission was denied: %+v", w.ha.Stats())
	}
}

func TestRegistrationRetryExhaustionLeavesCleanState(t *testing.T) {
	w := newWorld(t, 1)
	haDevs := w.ha.host.Ifaces()
	for _, ifc := range haDevs {
		if ifc.Device() != nil {
			ifc.Device().BringDown()
		}
	}
	var regErr error
	done := false
	w.mh.ConnectForeign(w.eth1, func(err error) { regErr, done = err, true })
	w.run(time.Minute)
	if !done || !errors.Is(regErr, ErrRegistrationTimeout) {
		t.Fatalf("err = %v done=%v", regErr, done)
	}

	// Every transmission was one of the regMaxTries attempts; after the
	// exhaustion surfaced, no leaked retry timer may keep sending.
	sent := w.mh.Stats().RegRequestsSent
	if sent != regMaxTries {
		t.Fatalf("RegRequestsSent = %d, want regMaxTries = %d", sent, regMaxTries)
	}
	w.run(time.Minute)
	if got := w.mh.Stats().RegRequestsSent; got != sent {
		t.Fatalf("leaked retry timer: RegRequestsSent grew %d -> %d after exhaustion", sent, got)
	}

	// A later attach must start a fresh attempt and succeed cleanly once
	// the home agent is reachable again.
	for _, ifc := range haDevs {
		if ifc.Device() != nil {
			ifc.Device().BringUp(nil)
		}
	}
	var retryErr error
	retried := false
	w.mh.ConnectForeign(w.eth1, func(err error) { retryErr, retried = err, true })
	w.run(time.Minute)
	if !retried || retryErr != nil {
		t.Fatalf("re-attach after exhaustion: err=%v done=%v", retryErr, retried)
	}
	if !w.mh.Registered() {
		t.Fatal("MH not registered after re-attach")
	}
	if w.mh.Stats().RegTimeouts != 1 {
		t.Fatalf("RegTimeouts = %d, want exactly the original exhaustion", w.mh.Stats().RegTimeouts)
	}
}

// TestForeignAgentPendingIsBoundedByVisitors: with the home agent down every
// retry through the foreign agent carries a fresh identification and none is
// ever answered. The agent remembers the latest one per visitor — not one per
// transmission — drops a reply to an earlier one instead of relaying it and
// installing a visitor, and relays the reply to the latest once the home
// agent is back.
func TestForeignAgentPendingIsBoundedByVisitors(t *testing.T) {
	w := newWorld(t, 1)
	faTS, faIfc := mkHost(w.loop, w.forA, "fa", "10.2.0.4/24", "10.2.0.1")
	fa, err := NewForeignAgent(faTS, ForeignAgentConfig{Iface: faIfc, Tracer: w.tr})
	if err != nil {
		t.Fatal(err)
	}
	home := ip.MustParseAddr(wHomeAddr)
	w.ha.Crash()
	for i := 0; i < 2; i++ {
		var regErr error
		done := false
		w.mh.ConnectViaForeignAgent(w.eth1, fa.Addr(), func(err error) { regErr, done = err, true })
		w.run(time.Minute)
		if !done || !errors.Is(regErr, ErrRegistrationTimeout) {
			t.Fatalf("registration %d with the home agent down: done=%v err=%v", i, done, regErr)
		}
	}
	if relayed := fa.Stats().RequestsRelayed; relayed != 2*regMaxTries {
		t.Fatalf("agent relayed %d requests, want %d", relayed, 2*regMaxTries)
	}
	if len(fa.pending) != 1 {
		t.Fatalf("agent holds %d pending requests for one visitor, want 1", len(fa.pending))
	}

	// A late reply to the try before the last is nobody's.
	w.ha.Restart()
	haSock, _ := w.ha.ts.UDP(ip.Unspecified, 0, nil)
	stale := &RegReply{Code: CodeAccepted, Lifetime: 60, HomeAddr: home, HomeAgent: ip.MustParseAddr(wHAAddr), ID: fa.pending[home] - 1}
	haSock.SendTo(fa.Addr(), Port, stale.Marshal())
	w.run(time.Second)
	if st := fa.Stats(); st.DropUnmatched != 1 || st.RepliesRelayed != 0 || fa.HasVisitor(home) {
		t.Fatalf("stale reply: %+v, visitor installed: %v", st, fa.HasVisitor(home))
	}

	var regErr error
	done := false
	w.mh.ConnectViaForeignAgent(w.eth1, fa.Addr(), func(err error) { regErr, done = err, true })
	w.run(10 * time.Second)
	if !done || regErr != nil {
		t.Fatalf("registration after the restart: done=%v err=%v", done, regErr)
	}
	if st := fa.Stats(); st.RepliesRelayed != 1 || !fa.HasVisitor(home) || len(fa.pending) != 0 {
		t.Fatalf("after the restart: %+v, visitor %v, %d pending", st, fa.HasVisitor(home), len(fa.pending))
	}
}
