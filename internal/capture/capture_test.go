package capture

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"mosquitonet/internal/dhcp"
	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/mip"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/stack"
	"mosquitonet/internal/transport"
)

// entries keeps what a tap hands over: the history is the test's, not
// capture's.
type entries []Entry

func (es *entries) tap(loop *sim.Loop, n *link.Network) {
	Tap(loop, n, func(e Entry) { *es = append(*es, e) })
}

// find returns the entries whose line contains substr.
func (es entries) find(substr string) []Entry {
	var out []Entry
	for _, e := range es {
		if strings.Contains(e.Line, substr) {
			out = append(out, e)
		}
	}
	return out
}

func (es entries) String() string {
	var b strings.Builder
	for _, e := range es {
		fmt.Fprintln(&b, e)
	}
	return b.String()
}

// scenario: two hosts exchanging various traffic on one tapped network.
type scenario struct {
	loop *sim.Loop
	net  *link.Network
	cap  *entries
	a, b *transport.Stack
}

func newScenario(t *testing.T) *scenario {
	t.Helper()
	loop := sim.New(1)
	n := link.NewNetwork(loop, "lab", link.Ethernet())
	c := &entries{}
	c.tap(loop, n)
	mk := func(name, addr string) *transport.Stack {
		h := stack.NewHost(loop, name, stack.Config{})
		d := link.NewDevice(loop, name+"-eth", 0, 0)
		d.Attach(n)
		d.BringUp(nil)
		ifc := h.AddIface("eth0", d, ip.MustParseAddr(addr), ip.MustParsePrefix("10.0.0.0/24"), stack.IfaceOpts{})
		h.ConnectRoute(ifc)
		loop.RunFor(0)
		return transport.NewStack(h)
	}
	return &scenario{loop: loop, net: n, cap: c, a: mk("a", "10.0.0.1"), b: mk("b", "10.0.0.2")}
}

func TestCapturesARPAndUDP(t *testing.T) {
	s := newScenario(t)
	srv, _ := s.b.UDP(ip.Unspecified, 4000, nil)
	_ = srv
	cli, _ := s.a.UDP(ip.Unspecified, 0, nil)
	cli.SendTo(ip.MustParseAddr("10.0.0.2"), 4000, []byte("payload"))
	s.loop.RunFor(time.Second)

	if len(s.cap.find("arp who-has 10.0.0.2")) != 1 {
		t.Fatalf("ARP request not captured:\n%s", s.cap)
	}
	if len(s.cap.find("arp reply 10.0.0.2 is-at")) != 1 {
		t.Fatalf("ARP reply not captured:\n%s", s.cap)
	}
	if len(s.cap.find("udp 7 bytes")) != 1 {
		t.Fatalf("UDP datagram not captured:\n%s", s.cap)
	}
}

func TestCapturesICMP(t *testing.T) {
	s := newScenario(t)
	s.a.Host().ICMP().Ping(ip.MustParseAddr("10.0.0.2"), ip.Unspecified, 8, time.Second, nil)
	s.loop.RunFor(2 * time.Second)
	if len(s.cap.find("icmp echo request")) != 1 || len(s.cap.find("icmp echo reply")) != 1 {
		t.Fatalf("ICMP exchange not captured:\n%s", s.cap)
	}
}

func TestCapturesTCPHandshake(t *testing.T) {
	s := newScenario(t)
	s.b.Listen(ip.Unspecified, 80, nil)
	s.a.Connect(ip.Unspecified, ip.MustParseAddr("10.0.0.2"), 80)
	s.loop.RunFor(2 * time.Second)
	if len(s.cap.find("tcp SYN seq=")) < 1 {
		t.Fatalf("SYN not captured:\n%s", s.cap)
	}
	if len(s.cap.find("tcp SYN|ACK")) != 1 {
		t.Fatalf("SYN|ACK not captured:\n%s", s.cap)
	}
}

func TestCapturesMobileIPAndTunnel(t *testing.T) {
	// A registration request/reply plus a tunneled packet, hand-built.
	s := newScenario(t)
	reg := &mip.RegRequest{Lifetime: 60, HomeAddr: ip.MustParseAddr("36.135.0.7"),
		HomeAgent: ip.MustParseAddr("10.0.0.2"), CareOf: ip.MustParseAddr("10.0.0.1"), ID: 42}
	cli, _ := s.a.UDP(ip.MustParseAddr("10.0.0.1"), mip.Port, nil)
	cli.SendTo(ip.MustParseAddr("10.0.0.2"), mip.Port, reg.Marshal())
	s.loop.RunFor(time.Second)
	if len(s.cap.find("mip reg-request home=36.135.0.7 careof=10.0.0.1")) != 1 {
		t.Fatalf("registration not decoded:\n%s", s.cap)
	}

	inner := &ip.Packet{
		Header:  ip.Header{TTL: 64, Protocol: ip.ProtoUDP, Src: ip.MustParseAddr("36.8.0.99"), Dst: ip.MustParseAddr("36.135.0.7")},
		Payload: ip.MarshalUDP(ip.MustParseAddr("36.8.0.99"), ip.MustParseAddr("36.135.0.7"), ip.UDPHeader{SrcPort: 9, DstPort: 9}, []byte("x")),
	}
	outer, _ := ip.Encapsulate(ip.MustParseAddr("10.0.0.2"), ip.MustParseAddr("10.0.0.1"), 64, 1, inner)
	s.b.Host().Output(outer)
	s.loop.RunFor(time.Second)
	hits := s.cap.find("ipip {")
	if len(hits) != 1 || !strings.Contains(hits[0].Line, "36.8.0.99:9 > 36.135.0.7:9") {
		t.Fatalf("tunnel not decoded recursively:\n%s", s.cap)
	}
}

// TestFormatsNestedTunnel decodes a doubly encapsulated frame: every layer
// keeps its own addresses, a bad inner still names the outer's, and capture,
// being an observer, leaves a pooled packet and its pool as it found them.
func TestFormatsNestedTunnel(t *testing.T) {
	a := ip.MustParseAddr
	pool := ip.PoolFor(sim.New(1))
	inner := ip.NewUDPPacket(pool, a("36.8.0.99"), a("36.135.0.7"), ip.UDPHeader{SrcPort: 9, DstPort: 9}, []byte("x"))
	mid, err := ip.Encapsulate(a("36.135.0.1"), a("36.40.0.1"), 64, 1, inner)
	if err != nil {
		t.Fatal(err)
	}
	outer, err := ip.Encapsulate(a("36.40.0.1"), a("10.0.0.1"), 64, 2, mid)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := outer.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	inner.Release()
	mid.Release()
	outer.Release()

	// Corrupt the innermost header's version nibble; the middle layer must
	// still print its own addresses.
	bad := append([]byte(nil), wire...)
	bad[2*ip.HeaderLen] = 0x65
	for _, c := range []struct {
		name string
		wire []byte
		want string
	}{
		{"nested", wire, "36.40.0.1 > 10.0.0.1: ipip { 36.135.0.1 > 36.40.0.1: ipip { 36.8.0.99:9 > 36.135.0.7:9: udp 1 bytes } }"},
		{"bad inner", bad, "36.40.0.1 > 10.0.0.1: ipip { 36.135.0.1 > 36.40.0.1: ipip [bad inner] }"},
	} {
		if line := FormatFrame(&link.Frame{Type: link.EtherTypeIPv4, Payload: c.wire}); line != c.want {
			t.Fatalf("%s: frame decoded as\n %s\nwant\n %s", c.name, line, c.want)
		}
		// A packet of the pool, as a device receiver makes it: decoding it
		// with ip.Decapsulate would take the inner from this pool and
		// release the outer to it, which its ledger would show.
		pkt, err := ip.UnmarshalPooled(pool, c.wire)
		if err != nil {
			t.Fatal(err)
		}
		before := pool.Ledger()
		if line := FormatPacket(pkt); line != c.want {
			t.Fatalf("%s: packet decoded as\n %s\nwant\n %s", c.name, line, c.want)
		}
		if after := pool.Ledger(); after != before {
			t.Fatalf("%s: capture drew from the packet pool: %+v -> %+v", c.name, before, after)
		}
		if line := FormatPacket(pkt); line != c.want {
			t.Fatalf("%s: packet reads differently after capture:\n %s\nwant\n %s", c.name, line, c.want)
		}
		pkt.Release()
		if l := pool.Ledger(); l.InUse() != 0 {
			t.Fatalf("%s: %d packets in use after release: %+v", c.name, l.InUse(), l)
		}
	}
}

func TestCapturesDHCP(t *testing.T) {
	s := newScenario(t)
	m := &dhcp.Message{Type: dhcp.Discover, XID: 7}
	cli, _ := s.a.UDP(ip.Unspecified, dhcp.ClientPort, nil)
	cli.SendToVia(s.a.Host().IfaceByName("eth0"), ip.Broadcast, ip.Broadcast, dhcp.ServerPort, m.Marshal())
	s.loop.RunFor(time.Second)
	if len(s.cap.find("dhcp DISCOVER")) != 1 {
		t.Fatalf("DHCP not decoded:\n%s", s.cap)
	}
}

func TestCapturesFragments(t *testing.T) {
	loop := sim.New(1)
	m := link.Ethernet()
	m.MTU = 600
	n := link.NewNetwork(loop, "narrow", m)
	c := &entries{}
	c.tap(loop, n)
	mk := func(name, addr string) *stack.Host {
		h := stack.NewHost(loop, name, stack.Config{})
		d := link.NewDevice(loop, name+"-eth", 0, 0)
		d.Attach(n)
		d.BringUp(nil)
		ifc := h.AddIface("eth0", d, ip.MustParseAddr(addr), ip.MustParsePrefix("10.0.0.0/24"), stack.IfaceOpts{})
		h.ConnectRoute(ifc)
		loop.RunFor(0)
		return h
	}
	h := mk("a", "10.0.0.1")
	mk("b", "10.0.0.2") // must exist so ARP resolves and fragments fly
	h.Output(&ip.Packet{
		Header:  ip.Header{Protocol: ip.ProtoUDP, Dst: ip.MustParseAddr("10.0.0.2")},
		Payload: make([]byte, 1500),
	})
	loop.RunFor(time.Second)
	if len(c.find("frag id=")) < 3 {
		t.Fatalf("fragments not decoded:\n%s", c)
	}
}

// TestTapSeesEveryFrame: every tap on a network is handed every frame as it
// crosses the wire, in order.
func TestTapSeesEveryFrame(t *testing.T) {
	s := newScenario(t)
	var second entries
	second.tap(s.loop, s.net)
	cli, _ := s.a.UDP(ip.Unspecified, 0, nil)
	for i := 0; i < 5; i++ {
		cli.SendTo(ip.MustParseAddr("10.0.0.2"), 9, []byte("x"))
	}
	s.loop.RunFor(time.Second)
	if got := len(second.find("udp 1 bytes")); got != 5 {
		t.Fatalf("tap saw %d of 5 datagrams:\n%s", got, second)
	}
	if first := *s.cap; second.String() != first[len(first)-len(second):].String() {
		t.Fatalf("two taps disagree:\n%s\nvs\n%s", first, second)
	}
	for i := 1; i < len(second); i++ {
		if second[i].At < second[i-1].At {
			t.Fatalf("entry %d at %v precedes entry %d at %v", i, second[i].At, i-1, second[i-1].At)
		}
	}
}

func TestFormatMalformed(t *testing.T) {
	if !strings.Contains(FormatFrame(&link.Frame{Type: link.EtherTypeARP, Payload: []byte{1}}), "malformed") {
		t.Fatal("malformed ARP not flagged")
	}
	if !strings.Contains(FormatFrame(&link.Frame{Type: link.EtherTypeIPv4, Payload: []byte{1}}), "malformed") {
		t.Fatal("malformed IP not flagged")
	}
	if !strings.Contains(FormatFrame(&link.Frame{Type: 0x9999, Payload: []byte{1}}), "ethertype") {
		t.Fatal("unknown ethertype not flagged")
	}
}

// TestEntryJSON: an entry encodes as one JSON object per line with the
// fields mnet -dump-json writes.
func TestEntryJSON(t *testing.T) {
	s := newScenario(t)
	cli, _ := s.a.UDP(ip.Unspecified, 0, nil)
	cli.SendTo(ip.MustParseAddr("10.0.0.2"), 9, []byte("x"))
	s.loop.RunFor(time.Second)
	if len(*s.cap) == 0 {
		t.Fatal("nothing captured")
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, e := range *s.cap {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(*s.cap) {
		t.Fatalf("want %d lines, got %d", len(*s.cap), len(lines))
	}
	for i, line := range lines {
		var e struct {
			AtNS    int64  `json:"at_ns"`
			Network string `json:"network"`
			Line    string `json:"line"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %d not valid JSON: %v", i, err)
		}
		if e.Network != "lab" || e.Line != (*s.cap)[i].Line || e.AtNS != int64((*s.cap)[i].At) {
			t.Fatalf("line %d = %+v, want %+v", i, e, (*s.cap)[i])
		}
	}
}
