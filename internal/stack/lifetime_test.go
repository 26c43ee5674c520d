package stack

import (
	"testing"
	"time"
	"unsafe"

	"mosquitonet/internal/bufpool"
	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/sim"
)

// TestLoopsNeverShareAChunk: hosts and interfaces built alternately on two
// loops come out of each loop's own chunks — consecutive on their loop, far
// from the other's. A chunk is collected whole or not at all and a Host
// reaches its entire simulation, so one shared chunk would keep a finished
// simulation alive for as long as the other.
func TestLoopsNeverShareAChunk(t *testing.T) {
	l1, l2 := sim.New(1), sim.New(2)
	var h1, h2 [8]*Host
	for i := range h1 {
		h1[i] = NewHost(l1, "a", Config{})
		h2[i] = NewHost(l2, "b", Config{})
	}
	at := func(p unsafe.Pointer) uintptr { return uintptr(p) }
	hostSize, ifaceSize := unsafe.Sizeof(Host{}), unsafe.Sizeof(Iface{})
	for i := 1; i < len(h1); i++ {
		for _, hs := range [][8]*Host{h1, h2} {
			if at(unsafe.Pointer(hs[i]))-at(unsafe.Pointer(hs[i-1])) != hostSize {
				t.Fatalf("host %d of a loop does not follow host %d in its chunk: another loop allocated in between", i, i-1)
			}
			if at(unsafe.Pointer(hs[i].lo))-at(unsafe.Pointer(hs[i-1].lo)) != ifaceSize {
				t.Fatalf("interface %d of a loop does not follow interface %d in its chunk", i, i-1)
			}
		}
	}
}

// outstanding sums the loops' ledgers of pooled packets that have an owner
// and of wire buffers someone holds. A frame that crossed a trunk took its
// buffer from one loop's lists and put it back on the other's, so only the
// sum over the loops balances.
func outstanding(loops ...*sim.Loop) (packets, buffers int64) {
	for _, l := range loops {
		packets += ip.PoolFor(l).Ledger().InUse()
		buffers += bufpool.For(l).Ledger().InUse()
	}
	return packets, buffers
}

// TestLentPacketIsPoisoned: a handler that (wrongly) keeps the packet it
// was lent reads a zeroed header once the stack has released it — never the
// packet it saw, never a later one — while the clone a correct handler keeps
// stays whole.
func TestLentPacketIsPoisoned(t *testing.T) {
	loop := sim.New(1)
	a, b, _ := twoSubnetTopology(t, loop)

	var kept, clone *ip.Packet
	var seenByHandler string
	b.host.RegisterHandler(ip.ProtoUDP, func(_ *Iface, pkt *ip.Packet) {
		kept, clone, seenByHandler = pkt, pkt.Clone(), pkt.String()
	})
	if err := a.host.Output(udpPacket("10.0.0.2", "10.0.1.2", "lent")); err != nil {
		t.Fatal(err)
	}
	loop.RunFor(time.Second)

	const poisoned = "proto(0) 0.0.0.0->0.0.0.0 ttl=0 len=20"
	if clone == nil || seenByHandler != "udp 10.0.0.2->10.0.1.2 ttl=63 len=24" {
		t.Fatalf("the handler saw %q", seenByHandler)
	}
	if got := kept.String(); got != poisoned || kept.Payload != nil || kept.Trace != 0 {
		t.Errorf("the packet the handler kept reads %s payload %q after its return, want %s", got, kept.Payload, poisoned)
	}
	if clone.String() != seenByHandler || string(clone.Payload) != "lent" || clone.Trace == 0 {
		t.Errorf("the clone reads %v %q, want what the handler saw", clone, clone.Payload)
	}
}

// TestEveryPathReturnsItsPacket drives one packet down each way a packet can
// end — delivered, forwarded, loopback, reassembled from fragments, dropped
// by TTL with an ICMP error that is itself delivered, dropped for want of a
// handler, a route, the transit check's consent — and requires the loop's
// packet pool and wire-buffer lists to balance once it is idle.
func TestEveryPathReturnsItsPacket(t *testing.T) {
	loop := sim.New(1)
	a, b, router := twoSubnetTopology(t, loop)
	got := collect(b.host)
	send := func(h *Host, pkt *ip.Packet) {
		t.Helper()
		h.Output(pkt) // a no-route error is one of the paths
		loop.RunFor(time.Second)
	}

	send(a.host, udpPacket("0.0.0.0", "10.0.1.2", "routed"))
	send(a.host, udpPacket("0.0.0.0", "127.0.0.1", "loop"))
	send(a.host, udpPacket("0.0.0.0", "10.0.1.2", string(make([]byte, 4000)))) // fragments at the sender
	dying := udpPacket("0.0.0.0", "10.0.1.2", "dying")
	dying.TTL = 1
	send(a.host, dying)
	send(a.host, &ip.Packet{Header: ip.Header{Protocol: 99, Dst: ip.MustParseAddr("10.0.1.2")}, Payload: []byte("no handler")})
	send(b.host, udpPacket("10.0.1.2", "77.7.7.7", "no route at the router"))
	lonely := NewHost(loop, "lonely", Config{})
	send(lonely, udpPacket("10.9.9.9", "77.7.7.7", "no route at the sender"))
	router.IfaceByName("eth0").SetTransitFilter(true)
	send(a.host, udpPacket("36.135.0.7", "10.0.1.2", "filtered"))
	loop.Run()

	if len(*got) != 2 || b.host.Reassembler().Stats().Reassembled != 1 {
		t.Fatalf("b's handler got %d datagrams, reassembled %d; want the routed one and the reassembled one",
			len(*got), b.host.Reassembler().Stats().Reassembled)
	}
	// a has no UDP handler: its loopback datagram is a no-handler drop, and
	// what it is delivered is the time-exceeded error the router sent back.
	rs, as, bs := router.Stats(), a.host.Stats(), b.host.Stats()
	if rs.DropTTL != 1 || rs.DropFilter != 1 || rs.DropNoRoute != 1 || lonely.Stats().DropNoRoute < 1 ||
		bs.DropNoHandler != 1 || as.DropNoHandler != 1 || as.Delivered != 1 || as.FragmentsSent < 3 {
		t.Fatalf("not every path was driven: router %+v, a %+v, b %+v", rs, as, bs)
	}
	if made := ip.PoolFor(loop).Ledger().Taken; made < 18 {
		t.Fatalf("only %d pooled packets were made: the paths above did not run pooled", made)
	}
	if pkts, bufs := outstanding(loop); pkts != 0 || bufs != 0 {
		t.Errorf("at idle %+d pooled packets and %+d wire buffers are still out", pkts, bufs)
	}
}

// TestParkedFragmentsAreTheOnlyPacketsOut: on a lossy link some datagrams
// lose a fragment and the rest of them wait in the reassembly buffer. While
// they wait they are exactly the pooled packets outstanding, their buffers
// riding them, and every wire buffer is back (a flight puts its payload back
// when it lands); when the sweep expires them, none is out.
func TestParkedFragmentsAreTheOnlyPacketsOut(t *testing.T) {
	loop := sim.New(9)
	m := smallMTU(600)
	m.LossProb = 0.3
	n := link.NewNetwork(loop, "n", m)
	a := addNode(t, loop, n, "a", "10.0.0.1/24")
	b := addNode(t, loop, n, "b", "10.0.0.2/24")
	collect(b.host)
	for i := 0; i < 20; i++ {
		a.host.Output(udpPacket("0.0.0.0", "10.0.0.2", string(make([]byte, 2000))))
		loop.RunFor(100 * time.Millisecond)
	}
	held := int64(b.host.Reassembler().Held())
	if held == 0 {
		t.Fatal("no fragment is parked at 30% loss; the check needs some")
	}
	if pkts, bufs := outstanding(loop); pkts != held || bufs != 0 {
		t.Errorf("%d fragments parked, but %+d pooled packets and %+d wire buffers out", held, pkts, bufs)
	}
	loop.RunFor(2 * time.Minute) // several sweep intervals
	if held := b.host.Reassembler().Held(); held != 0 {
		t.Fatalf("%d fragments still parked after the sweeps", held)
	}
	if pkts, bufs := outstanding(loop); pkts != 0 || bufs != 0 {
		t.Errorf("after the sweeps %+d pooled packets and %+d wire buffers are still out", pkts, bufs)
	}
}
