package stack

import (
	"testing"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/sim"
)

// TestLocalAddrsAreASet: adding an address twice keeps it once, so one
// removal makes it non-local again; removing one address leaves the others,
// and removing an absent one changes nothing.
func TestLocalAddrsAreASet(t *testing.T) {
	h := NewHost(sim.New(1), "h", Config{})
	home, other := ip.MustParseAddr("36.135.0.7"), ip.MustParseAddr("36.135.0.8")
	h.AddLocalAddr(home)
	h.AddLocalAddr(other)
	h.AddLocalAddr(home)
	if !h.IsLocalAddr(home) || !h.IsLocalAddr(other) {
		t.Fatal("added addresses are not local")
	}
	h.RemoveLocalAddr(home)
	if h.IsLocalAddr(home) {
		t.Fatal("an address added twice and removed once is still local")
	}
	if !h.IsLocalAddr(other) {
		t.Fatal("removing one local address removed another")
	}
	h.RemoveLocalAddr(home)
	h.RemoveLocalAddr(other)
	if h.IsLocalAddr(other) || h.IsLocalAddr(home) {
		t.Fatal("removed addresses are still local")
	}
}

// handlerPair is two hosts on one Ethernet; b counts what each of its
// handlers is handed.
func handlerPair(t *testing.T) (loop *sim.Loop, a, b *node) {
	t.Helper()
	loop = sim.New(1)
	n := link.NewNetwork(loop, "n", link.Ethernet())
	return loop, addNode(t, loop, n, "a", "10.0.0.1/24"), addNode(t, loop, n, "b", "10.0.0.2/24")
}

// TestRegisterHandlerReplaces: registering a protocol's handler again
// replaces the first, which is handed nothing more; the other protocols'
// handlers are untouched.
func TestRegisterHandlerReplaces(t *testing.T) {
	loop, a, b := handlerPair(t)
	var first, second, tcp int
	b.host.RegisterHandler(ip.ProtoUDP, func(*Iface, *ip.Packet) { first++ })
	b.host.RegisterHandler(ip.ProtoTCP, func(*Iface, *ip.Packet) { tcp++ })
	b.host.RegisterHandler(ip.ProtoUDP, func(*Iface, *ip.Packet) { second++ })
	a.host.Output(udpPacket("0.0.0.0", "10.0.0.2", "u"))
	tcpPkt := udpPacket("0.0.0.0", "10.0.0.2", "t")
	tcpPkt.Protocol = ip.ProtoTCP
	a.host.Output(tcpPkt)
	loop.RunFor(time.Second)
	if first != 0 || second != 1 || tcp != 1 {
		t.Fatalf("handed: replaced UDP %d, replacing UDP %d, TCP %d; want 0, 1, 1", first, second, tcp)
	}
	if st := b.host.Stats(); st.Delivered != 2 || st.DropNoHandler != 0 {
		t.Fatalf("Delivered %d, DropNoHandler %d; want 2 and 0", st.Delivered, st.DropNoHandler)
	}
}

// TestUnregisteredProtocolBesideHandlers: with UDP and TCP handlers
// registered, a protocol neither names is still a DropNoHandler, and
// neither handler sees it.
func TestUnregisteredProtocolBesideHandlers(t *testing.T) {
	loop, a, b := handlerPair(t)
	var handed int
	b.host.RegisterHandler(ip.ProtoUDP, func(*Iface, *ip.Packet) { handed++ })
	b.host.RegisterHandler(ip.ProtoTCP, func(*Iface, *ip.Packet) { handed++ })
	pkt := udpPacket("0.0.0.0", "10.0.0.2", "gre?")
	pkt.Protocol = 47
	a.host.Output(pkt)
	loop.RunFor(time.Second)
	if st := b.host.Stats(); st.DropNoHandler != 1 || st.Delivered != 0 || handed != 0 {
		t.Fatalf("DropNoHandler %d, Delivered %d, handed %d; want 1, 0, 0", st.DropNoHandler, st.Delivered, handed)
	}
}

// TestICMPFallsBackToBuiltIn: a host with UDP and TCP handlers but none for
// ICMP answers an echo request with its built-in ICMP endpoint.
func TestICMPFallsBackToBuiltIn(t *testing.T) {
	loop, a, b := handlerPair(t)
	b.host.RegisterHandler(ip.ProtoUDP, func(*Iface, *ip.Packet) {})
	b.host.RegisterHandler(ip.ProtoTCP, func(*Iface, *ip.Packet) {})
	var res PingResult
	done := false
	a.host.ICMP().Ping(ip.MustParseAddr("10.0.0.2"), ip.Unspecified, 56, time.Second, func(r PingResult) {
		res, done = r, true
	})
	loop.RunFor(2 * time.Second)
	if !done || res.TimedOut || res.Unreachable || res.From != ip.MustParseAddr("10.0.0.2") {
		t.Fatalf("ping through the built-in handler: done %v, %+v", done, res)
	}
	if b.host.ICMP().EchoRequests != 1 || b.host.Stats().DropNoHandler != 0 {
		t.Fatalf("built-in endpoint served %d echo requests, DropNoHandler %d; want 1 and 0",
			b.host.ICMP().EchoRequests, b.host.Stats().DropNoHandler)
	}
}
