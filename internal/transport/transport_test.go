package transport

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/stack"
)

// pair is two hosts with transport stacks on one network.
type pair struct {
	loop   *sim.Loop
	a, b   *Stack
	aAddr  ip.Addr
	bAddr  ip.Addr
	net    *link.Network
	bIface *stack.Iface
}

func newPair(t *testing.T, medium link.Medium, seed int64) *pair {
	t.Helper()
	loop := sim.New(seed)
	n := link.NewNetwork(loop, "net", medium)
	mk := func(name, addr string) (*Stack, *stack.Iface) {
		h := stack.NewHost(loop, name, stack.Config{})
		d := link.NewDevice(loop, name+"-eth0", 0, 0)
		d.Attach(n)
		d.BringUp(nil)
		ifc := h.AddIface("eth0", d, ip.MustParseAddr(addr), ip.MustParsePrefix("10.0.0.0/24"), stack.IfaceOpts{})
		h.ConnectRoute(ifc)
		return NewStack(h), ifc
	}
	a, _ := mk("a", "10.0.0.1")
	b, bIfc := mk("b", "10.0.0.2")
	loop.RunFor(0)
	return &pair{
		loop: loop, a: a, b: b,
		aAddr: ip.MustParseAddr("10.0.0.1"),
		bAddr: ip.MustParseAddr("10.0.0.2"),
		net:   n, bIface: bIfc,
	}
}

func TestUDPEcho(t *testing.T) {
	p := newPair(t, link.Ethernet(), 1)
	var echoed []byte
	srv, err := p.b.Echo(ip.Unspecified, 7)
	if err != nil {
		t.Fatal(err)
	}

	cli, err := p.a.UDP(ip.Unspecified, 0, func(d Datagram) { echoed = append([]byte(nil), d.Payload...) })
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.SendTo(p.bAddr, 7, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	p.loop.RunFor(time.Second)
	if string(echoed) != "ping" {
		t.Fatalf("echoed %q", echoed)
	}
	if cli.Sent != 1 || cli.Received != 1 || srv.Received != 1 {
		t.Fatalf("counters cli=%d/%d srv=%d", cli.Sent, cli.Received, srv.Received)
	}
}

func TestUDPDatagramMetadata(t *testing.T) {
	p := newPair(t, link.Ethernet(), 1)
	var got Datagram
	_, err := p.b.UDP(ip.Unspecified, 53, func(d Datagram) { got = d })
	if err != nil {
		t.Fatal(err)
	}
	cli, _ := p.a.UDP(ip.Unspecified, 5555, nil)
	cli.SendTo(p.bAddr, 53, []byte("q"))
	p.loop.RunFor(time.Second)
	if got.From != p.aAddr || got.FromPort != 5555 || got.To != p.bAddr || got.ToPort != 53 {
		t.Fatalf("metadata: %+v", got)
	}
	if got.Iface == nil || got.Iface.Name() != "eth0" {
		t.Fatalf("arrival iface: %v", got.Iface)
	}
}

func TestUDPPortInUse(t *testing.T) {
	p := newPair(t, link.Ethernet(), 1)
	if _, err := p.a.UDP(ip.Unspecified, 68, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.a.UDP(ip.Unspecified, 68, nil); err != ErrPortInUse {
		t.Fatalf("err = %v", err)
	}
	// Binding the same port on a specific address is allowed (distinct key).
	if _, err := p.a.UDP(p.aAddr, 68, nil); err != nil {
		t.Fatalf("specific bind rejected: %v", err)
	}
}

func TestUDPExactBindingBeatsWildcard(t *testing.T) {
	p := newPair(t, link.Ethernet(), 1)
	hitExact, hitWild := 0, 0
	p.b.UDP(p.bAddr, 99, func(Datagram) { hitExact++ })
	p.b.UDP(ip.Unspecified, 99, func(Datagram) { hitWild++ })
	cli, _ := p.a.UDP(ip.Unspecified, 0, nil)
	cli.SendTo(p.bAddr, 99, []byte("x"))
	p.loop.RunFor(time.Second)
	if hitExact != 1 || hitWild != 0 {
		t.Fatalf("exact=%d wild=%d", hitExact, hitWild)
	}
}

func TestUDPNoSocketCounted(t *testing.T) {
	p := newPair(t, link.Ethernet(), 1)
	cli, _ := p.a.UDP(ip.Unspecified, 0, nil)
	cli.SendTo(p.bAddr, 4242, []byte("x"))
	p.loop.RunFor(time.Second)
	if p.b.StatsSnapshot().UDPNoSocket != 1 {
		t.Fatal("UDPNoSocket not counted")
	}
}

func TestUDPCloseReleasesBinding(t *testing.T) {
	p := newPair(t, link.Ethernet(), 1)
	s, _ := p.a.UDP(ip.Unspecified, 1000, nil)
	s.Close()
	if err := s.SendTo(p.bAddr, 7, nil); err != ErrClosed {
		t.Fatalf("send on closed: %v", err)
	}
	if _, err := p.a.UDP(ip.Unspecified, 1000, nil); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
	s.Close() // double close is a no-op
}

func TestUDPNoRoute(t *testing.T) {
	p := newPair(t, link.Ethernet(), 1)
	cli, _ := p.a.UDP(ip.Unspecified, 0, nil)
	if err := cli.SendTo(ip.MustParseAddr("99.9.9.9"), 7, nil); err == nil {
		t.Fatal("send with no route succeeded")
	}
}

func TestUDPBoundSourceUsed(t *testing.T) {
	p := newPair(t, link.Ethernet(), 1)
	var from ip.Addr
	p.b.UDP(ip.Unspecified, 7, func(d Datagram) { from = d.From })
	cli, _ := p.a.UDP(p.aAddr, 0, nil)
	cli.SendTo(p.bAddr, 7, []byte("x"))
	p.loop.RunFor(time.Second)
	if from != p.aAddr {
		t.Fatalf("source %v", from)
	}
}

func TestUDPBroadcastVia(t *testing.T) {
	p := newPair(t, link.Ethernet(), 1)
	got := 0
	p.b.UDP(ip.Unspecified, 67, func(d Datagram) { got++ })
	// A client with no usable address broadcasts out a specific interface.
	h := p.a.Host()
	cli, _ := p.a.UDP(ip.Unspecified, 68, nil)
	err := cli.SendToVia(h.IfaceByName("eth0"), ip.Broadcast, ip.Broadcast, 67, []byte("DISCOVER"))
	if err != nil {
		t.Fatal(err)
	}
	p.loop.RunFor(time.Second)
	if got != 1 {
		t.Fatalf("broadcast datagrams received: %d", got)
	}
}

// synGiveUp is how long a handshake can take before the SYN retry budget
// tears the connection down: the sender retransmits after 1, 2, 4, ... s.
const synGiveUp = initialRTO * (1<<(maxSynRetries+1) - 1)

// establish dials from a to b:port and waits for both sides. On a lossless
// medium the handshake is over within a millisecond and the clock reads 5 s
// on return. A lossy one can cost it the SYN, the SYN-ACK or the final ACK
// several times over, and the third retransmission only leaves at 7 s, so
// past 5 s establish waits on the connection states, not on a fixed window.
func establish(t *testing.T, p *pair, port uint16) (client, server *Conn) {
	t.Helper()
	accepted := make(chan *Conn, 1) // buffered; filled synchronously in sim
	var srvConn *Conn
	_, err := p.b.Listen(ip.Unspecified, port, func(c *Conn) { srvConn = c; accepted <- c })
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.a.Connect(ip.Unspecified, p.bAddr, port)
	if err != nil {
		t.Fatal(err)
	}
	p.loop.RunFor(5 * time.Second)
	giveUp := sim.Time(synGiveUp)
	for !(c.Established() && srvConn != nil && srvConn.Established()) && c.State() != StateClosed && p.loop.Now() < giveUp {
		p.loop.RunFor(time.Second)
	}
	if !c.Established() {
		t.Fatalf("client not established: %v", c.State())
	}
	if srvConn == nil || !srvConn.Established() {
		t.Fatal("server not established")
	}
	return c, srvConn
}

// TestEstablishOutlastsLostHandshakeSegments pins the two seeds that made
// TestPropertyStreamByteStream fail 1-3 % of its time-seeded runs. Nothing
// was wrong in the transport: with 5 % loss the final ACK (first seed) or
// the SYN and then the SYN-ACK (second seed) is lost three times in a row,
// the retransmissions back off 1, 2, 4 s as they should, and the handshake
// completes at 7 s and 8 s — after the 5 s the helper used to allow.
func TestEstablishOutlastsLostHandshakeSegments(t *testing.T) {
	for _, seed := range []int64{-6373044843856225467, -7981673353279107249} {
		m := link.Ethernet()
		m.LossProb = 0.05
		p := newPair(t, m, seed)
		c, srv := establish(t, p, 80)
		if now := p.loop.Now(); now < sim.Time(7*time.Second) || now > sim.Time(9*time.Second) {
			t.Errorf("seed %d: handshake done by %v, want the third retransmission's 7-8 s", seed, now)
		}
		var rcvd bytes.Buffer
		srv.OnData = func(b []byte) { rcvd.Write(b) }
		if err := c.Write([]byte("after the storm")); err != nil {
			t.Fatal(err)
		}
		p.loop.RunFor(time.Minute)
		if rcvd.String() != "after the storm" {
			t.Errorf("seed %d: stream delivered %q", seed, rcvd.String())
		}
	}
}

func TestStreamHandshake(t *testing.T) {
	p := newPair(t, link.Ethernet(), 1)
	var cliUp, srvUp bool
	var srv *Conn
	p.b.Listen(ip.Unspecified, 80, func(c *Conn) {
		srv = c
		c.OnEstablished = func() { srvUp = true }
	})
	c, err := p.a.Connect(ip.Unspecified, p.bAddr, 80)
	if err != nil {
		t.Fatal(err)
	}
	c.OnEstablished = func() { cliUp = true }
	p.loop.RunFor(time.Second)
	if !cliUp || !srvUp {
		t.Fatalf("established cli=%v srv=%v", cliUp, srvUp)
	}
	la, lp := c.LocalAddr()
	ra, rp := c.RemoteAddr()
	if la != p.aAddr || ra != p.bAddr || rp != 80 || lp == 0 {
		t.Fatalf("addrs %v:%d -> %v:%d", la, lp, ra, rp)
	}
	if srv == nil || srv.State() != StateEstablished {
		t.Fatal("server conn state wrong")
	}
}

func TestStreamBulkTransfer(t *testing.T) {
	p := newPair(t, link.Ethernet(), 1)
	c, srv := establish(t, p, 80)
	var rcvd bytes.Buffer
	srv.OnData = func(b []byte) { rcvd.Write(b) }

	data := make([]byte, 50_000)
	for i := range data {
		data[i] = byte(i * 31)
	}
	if err := c.Write(data); err != nil {
		t.Fatal(err)
	}
	p.loop.RunFor(30 * time.Second)
	if !bytes.Equal(rcvd.Bytes(), data) {
		t.Fatalf("received %d bytes, corrupted or short (want %d)", rcvd.Len(), len(data))
	}
	if c.Unacked() != 0 {
		t.Fatalf("unacked bytes remain: %d", c.Unacked())
	}
}

func TestStreamBidirectional(t *testing.T) {
	p := newPair(t, link.Ethernet(), 1)
	c, srv := establish(t, p, 80)
	var atSrv, atCli bytes.Buffer
	srv.OnData = func(b []byte) { atSrv.Write(b) }
	c.OnData = func(b []byte) { atCli.Write(b) }
	c.Write([]byte("request"))
	srv.Write([]byte("response"))
	p.loop.RunFor(5 * time.Second)
	if atSrv.String() != "request" || atCli.String() != "response" {
		t.Fatalf("got %q / %q", atSrv.String(), atCli.String())
	}
}

func TestStreamOverLossyLink(t *testing.T) {
	m := link.Ethernet()
	m.LossProb = 0.15
	p := newPair(t, m, 99)
	c, srv := establish(t, p, 80)
	var rcvd bytes.Buffer
	srv.OnData = func(b []byte) { rcvd.Write(b) }
	data := make([]byte, 30_000)
	for i := range data {
		data[i] = byte(i ^ (i >> 8))
	}
	c.Write(data)
	p.loop.RunFor(5 * time.Minute)
	if !bytes.Equal(rcvd.Bytes(), data) {
		t.Fatalf("lossy transfer corrupt: got %d want %d bytes", rcvd.Len(), len(data))
	}
	if c.Stats().Retransmits == 0 {
		t.Fatal("no retransmissions on a 15%-loss link?")
	}
}

func TestStreamOrderlyClose(t *testing.T) {
	p := newPair(t, link.Ethernet(), 1)
	c, srv := establish(t, p, 80)
	var srvSawClose, cliSawClose bool
	srv.OnRemoteClose = func() { srvSawClose = true }
	c.OnRemoteClose = func() { cliSawClose = true }
	var rcvd bytes.Buffer
	srv.OnData = func(b []byte) { rcvd.Write(b) }

	c.Write([]byte("last words"))
	c.Close()
	p.loop.RunFor(10 * time.Second)
	if rcvd.String() != "last words" {
		t.Fatalf("data lost at close: %q", rcvd.String())
	}
	if !srvSawClose || !cliSawClose {
		t.Fatalf("close notifications srv=%v cli=%v", srvSawClose, cliSawClose)
	}
	if c.State() != StateClosed || srv.State() != StateClosed {
		t.Fatalf("states %v / %v", c.State(), srv.State())
	}
	if len(p.a.conns) != 0 || len(p.b.conns) != 0 {
		t.Fatal("connection table not cleaned up")
	}
}

func TestStreamConnectRefused(t *testing.T) {
	p := newPair(t, link.Ethernet(), 1)
	var gotErr error
	c, err := p.a.Connect(ip.Unspecified, p.bAddr, 4444) // nobody listening
	if err != nil {
		t.Fatal(err)
	}
	c.OnError = func(e error) { gotErr = e }
	p.loop.RunFor(5 * time.Second)
	if gotErr != ErrConnReset {
		t.Fatalf("err = %v, want reset", gotErr)
	}
}

func TestStreamConnectTimeout(t *testing.T) {
	p := newPair(t, link.Ethernet(), 1)
	var gotErr error
	c, err := p.a.Connect(ip.Unspecified, ip.MustParseAddr("10.0.0.99"), 80) // no such host
	if err != nil {
		t.Fatal(err)
	}
	c.OnError = func(e error) { gotErr = e }
	p.loop.RunFor(10 * time.Minute)
	if gotErr != ErrConnTimeout {
		t.Fatalf("err = %v, want timeout", gotErr)
	}
}

func TestStreamAbort(t *testing.T) {
	p := newPair(t, link.Ethernet(), 1)
	c, srv := establish(t, p, 80)
	var srvErr error
	srv.OnError = func(e error) { srvErr = e }
	c.Abort()
	p.loop.RunFor(time.Second)
	if c.State() != StateClosed {
		t.Fatal("aborter not closed")
	}
	if srvErr != ErrConnReset {
		t.Fatalf("peer error = %v", srvErr)
	}
}

func TestStreamWriteAfterClose(t *testing.T) {
	p := newPair(t, link.Ethernet(), 1)
	c, _ := establish(t, p, 80)
	c.Close()
	if err := c.Write([]byte("too late")); err != ErrClosed {
		t.Fatalf("err = %v", err)
	}
}

func TestStreamRTTAdaptation(t *testing.T) {
	// On a high-latency link the RTO must grow past the RTT; on ethernet
	// it must stay near the floor.
	m := link.Ethernet()
	m.Latency = 120 * time.Millisecond // ~240ms RTT, radio-like
	p := newPair(t, m, 1)
	c, srv := establish(t, p, 80)
	srv.OnData = func([]byte) {}
	for i := 0; i < 20; i++ {
		c.Write(make([]byte, 500))
	}
	p.loop.RunFor(time.Minute)
	if c.Stats().Retransmits != 0 {
		t.Fatalf("spurious retransmits on lossless link: %d", c.Stats().Retransmits)
	}
	if c.RTO() < 240*time.Millisecond {
		t.Fatalf("RTO %v below path RTT", c.RTO())
	}
}

func TestStreamSurvivesHandshakeAckLoss(t *testing.T) {
	// Drop exactly the client's handshake ACK: the server's SYN-ACK
	// retransmission must complete the handshake.
	m := link.Ethernet()
	p := newPair(t, m, 5)
	var srv *Conn
	p.b.Listen(ip.Unspecified, 80, func(c *Conn) { srv = c })
	c, err := p.a.Connect(ip.Unspecified, p.bAddr, 80)
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage: bring b down briefly right after it sends SYN-ACK so the
	// client's ACK is lost in flight.
	p.loop.Schedule(400*time.Microsecond, func() {
		d := p.b.Host().IfaceByName("eth0").Device()
		d.BringDown()
		p.loop.Schedule(50*time.Millisecond, func() { d.BringUp(nil) })
	})
	p.loop.RunFor(30 * time.Second)
	if !c.Established() || srv == nil || !srv.Established() {
		t.Fatalf("handshake did not recover: cli=%v", c.State())
	}
}

// Property: any sequence of writes with arbitrary sizes arrives as the
// exact concatenated byte stream, over a mildly lossy link.
func TestPropertyStreamByteStream(t *testing.T) {
	f := func(chunks [][]byte, seed int64) bool {
		m := link.Ethernet()
		m.LossProb = 0.05
		p := newPair(t, m, seed)
		c, srv := establish(t, p, 80)
		var rcvd bytes.Buffer
		srv.OnData = func(b []byte) { rcvd.Write(b) }
		var want bytes.Buffer
		total := 0
		for _, ch := range chunks {
			if total+len(ch) > 20000 {
				break
			}
			total += len(ch)
			want.Write(ch)
			if err := c.Write(ch); err != nil {
				return false
			}
		}
		p.loop.RunFor(2 * time.Minute)
		return bytes.Equal(rcvd.Bytes(), want.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(1996))}); err != nil {
		t.Fatal(err)
	}
}

func TestEphemeralPortsDistinct(t *testing.T) {
	p := newPair(t, link.Ethernet(), 1)
	seen := map[uint16]bool{}
	for i := 0; i < 100; i++ {
		s, err := p.a.UDP(ip.Unspecified, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if seen[s.Port()] {
			t.Fatalf("duplicate ephemeral port %d", s.Port())
		}
		seen[s.Port()] = true
	}
}

func TestConnStateString(t *testing.T) {
	for st, want := range map[ConnState]string{
		StateSynSent: "syn-sent", StateSynRcvd: "syn-rcvd",
		StateEstablished: "established", StateFinSent: "fin-sent", StateClosed: "closed",
	} {
		if st.String() != want {
			t.Errorf("%d -> %q", st, st.String())
		}
	}
}

// TestStreamRecoversFromWindowLoss models a handoff blackout: the receiver
// vanishes long enough for a whole window of segments to be lost, then
// returns. Recovery must be ACK-clocked (a round trip per lost segment at
// worst), not one segment per backed-off RTO.
func TestStreamRecoversFromWindowLoss(t *testing.T) {
	p := newPair(t, link.Ethernet(), 11)
	c, srv := establish(t, p, 80)
	var rcvd bytes.Buffer
	srv.OnData = func(b []byte) { rcvd.Write(b) }

	data := make([]byte, 12_000)
	for i := range data {
		data[i] = byte(i * 3)
	}
	// Receiver goes dark, the sender blasts a window into the void.
	dev := p.b.Host().IfaceByName("eth0").Device()
	dev.BringDown()
	c.Write(data)
	p.loop.RunFor(10 * time.Second) // several RTOs back off
	dev.BringUp(nil)

	// Once the link returns, recovery must complete within the backed-off
	// RTO (<= 60s) plus a handful of round trips — not one MSS per RTO
	// (which would need ~12 minutes here).
	p.loop.RunFor(90 * time.Second)
	if !bytes.Equal(rcvd.Bytes(), data) {
		t.Fatalf("recovered %d of %d bytes; go-back-N recovery not ACK-clocked", rcvd.Len(), len(data))
	}
	if c.Unacked() != 0 {
		t.Fatalf("unacked remain: %d", c.Unacked())
	}
	if c.Stats().Retransmits == 0 {
		t.Fatal("no retransmissions recorded")
	}
}

// TestUDPRebind moves one socket between bindings, as a mobile host's
// registration socket moves between care-of addresses: it behaves as Close
// followed by UDP with the same handler would, and it is the same socket.
func TestUDPRebind(t *testing.T) {
	p := newPair(t, link.Ethernet(), 1)
	elsewhere := ip.MustParseAddr("10.0.0.3")
	got := 0
	sock, err := p.b.UDP(p.bAddr, 434, func(Datagram) { got++ })
	if err != nil {
		t.Fatal(err)
	}
	cli, _ := p.a.UDP(ip.Unspecified, 0, nil)
	send := func() {
		cli.SendTo(p.bAddr, 434, []byte("x"))
		p.loop.RunFor(time.Second)
	}
	send()
	if err := sock.Rebind(elsewhere); err != nil || sock.Bound() != elsewhere || sock.Port() != 434 {
		t.Fatalf("Rebind: %v, now bound to %v:%d", err, sock.Bound(), sock.Port())
	}
	send() // the binding left behind is gone
	if got != 1 || p.b.stats.UDPNoSocket != 1 {
		t.Fatalf("after moving away: %d delivered, %d without a socket; want 1 and 1", got, p.b.stats.UDPNoSocket)
	}
	other, err := p.b.UDP(p.bAddr, 434, nil)
	if err != nil {
		t.Fatalf("the address left behind is not free: %v", err)
	}
	// A taken address: the socket is left closed, like Close then a failed UDP.
	if err := sock.Rebind(p.bAddr); err != ErrPortInUse {
		t.Fatalf("Rebind onto a taken binding: %v", err)
	}
	if err := sock.SendTo(p.aAddr, 9, nil); err != ErrClosed {
		t.Errorf("SendTo after a failed Rebind: %v, want ErrClosed", err)
	}
	if _, err := p.b.UDP(elsewhere, 434, nil); err != nil {
		t.Errorf("a failed Rebind kept the old binding: %v", err)
	}
	// A closed socket binds again, handler and counters with it.
	other.Close()
	if err := sock.Rebind(p.bAddr); err != nil {
		t.Fatal(err)
	}
	send()
	if got != 2 || sock.Received != 2 {
		t.Errorf("rebound socket: %d delivered, socket counts %d; want 2 and 2", got, sock.Received)
	}
}
