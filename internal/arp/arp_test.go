package arp

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/sim"
)

// host bundles a device and its ARP cache with a fixed address list.
type host struct {
	dev   *link.Device
	cache *Cache
	addrs []ip.Addr
	rxIP  [][]byte
}

func newHost(t *testing.T, loop *sim.Loop, n *link.Network, name, addr string, cfg Config) *host {
	t.Helper()
	h := &host{dev: link.NewDevice(loop, name, 0, 0)}
	if addr != "" {
		h.addrs = []ip.Addr{ip.MustParseAddr(addr)}
	}
	h.cache = New(loop, h.dev, cfg, func() []ip.Addr { return h.addrs })
	h.dev.SetReceiver(func(f *link.Frame) {
		switch f.Type {
		case link.EtherTypeARP:
			h.cache.HandleFrame(f)
		case link.EtherTypeIPv4:
			h.rxIP = append(h.rxIP, f.Payload)
		}
	})
	h.dev.Attach(n)
	h.dev.BringUp(nil)
	loop.RunFor(0)
	return h
}

func TestMessageRoundTrip(t *testing.T) {
	m := &Message{
		Op:       OpReply,
		SenderHW: link.HWAddr{1, 2, 3, 4, 5, 6},
		SenderIP: ip.MustParseAddr("10.0.0.1"),
		TargetHW: link.HWAddr{7, 8, 9, 10, 11, 12},
		TargetIP: ip.MustParseAddr("10.0.0.2"),
	}
	got, err := Unmarshal(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *m {
		t.Fatalf("round trip: %+v vs %+v", got, m)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(make([]byte, 10)); err != ErrShortMessage {
		t.Errorf("short: %v", err)
	}
	b := (&Message{Op: OpRequest}).Marshal()
	b[0] = 0xff // htype
	if _, err := Unmarshal(b); err != ErrBadFormat {
		t.Errorf("bad htype: %v", err)
	}
}

func TestPropertyMessageRoundTrip(t *testing.T) {
	f := func(op uint16, shw, thw [6]byte, sip, tip [4]byte) bool {
		m := &Message{Op: Op(op), SenderHW: shw, SenderIP: sip, TargetHW: thw, TargetIP: tip}
		got, err := Unmarshal(m.Marshal())
		return err == nil && *got == *m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1996))}); err != nil {
		t.Fatal(err)
	}
}

func TestResolveAndDeliver(t *testing.T) {
	loop := sim.New(1)
	n := link.NewNetwork(loop, "net", link.Ethernet())
	a := newHost(t, loop, n, "a", "10.0.0.1", Config{})
	b := newHost(t, loop, n, "b", "10.0.0.2", Config{})

	a.cache.SendIP(ip.MustParseAddr("10.0.0.2"), []byte("payload"), 0)
	loop.RunFor(time.Second)

	if len(b.rxIP) != 1 || string(b.rxIP[0]) != "payload" {
		t.Fatalf("b received %v", b.rxIP)
	}
	if hw, ok := a.cache.Lookup(ip.MustParseAddr("10.0.0.2")); !ok || hw != b.dev.HW() {
		t.Fatal("a did not learn b's address")
	}
	// b should have learned a's mapping from the request (it was the target).
	if hw, ok := b.cache.Lookup(ip.MustParseAddr("10.0.0.1")); !ok || hw != a.dev.HW() {
		t.Fatal("b did not learn a's address from the request")
	}
}

func TestCachedSendSkipsRequest(t *testing.T) {
	loop := sim.New(1)
	n := link.NewNetwork(loop, "net", link.Ethernet())
	a := newHost(t, loop, n, "a", "10.0.0.1", Config{})
	b := newHost(t, loop, n, "b", "10.0.0.2", Config{})
	a.cache.SendIP(b.addrs[0], []byte("1"), 0)
	loop.RunFor(time.Second)
	before := a.cache.Stats().RequestsSent
	a.cache.SendIP(b.addrs[0], []byte("2"), 0)
	loop.RunFor(time.Second)
	if a.cache.Stats().RequestsSent != before {
		t.Fatal("second send issued another request")
	}
	if len(b.rxIP) != 2 {
		t.Fatalf("b received %d packets", len(b.rxIP))
	}
}

func TestQueueMultipleWhileResolving(t *testing.T) {
	loop := sim.New(1)
	n := link.NewNetwork(loop, "net", link.Ethernet())
	a := newHost(t, loop, n, "a", "10.0.0.1", Config{})
	b := newHost(t, loop, n, "b", "10.0.0.2", Config{})
	for i := 0; i < 3; i++ {
		a.cache.SendIP(b.addrs[0], []byte{byte('0' + i)}, 0)
	}
	loop.RunFor(time.Second)
	if len(b.rxIP) != 3 {
		t.Fatalf("b received %d packets, want 3", len(b.rxIP))
	}
	if a.cache.Stats().RequestsSent != 1 {
		t.Fatalf("requests sent = %d, want 1", a.cache.Stats().RequestsSent)
	}
}

func TestPendingOverflowDrops(t *testing.T) {
	loop := sim.New(1)
	n := link.NewNetwork(loop, "net", link.Ethernet())
	a := newHost(t, loop, n, "a", "10.0.0.1", Config{MaxPending: 2})
	for i := 0; i < 5; i++ {
		a.cache.SendIP(ip.MustParseAddr("10.0.0.99"), []byte{byte(i)}, 0) // no such host
	}
	if a.cache.Stats().PacketsDropped != 3 {
		t.Fatalf("dropped = %d, want 3 overflow drops", a.cache.Stats().PacketsDropped)
	}
}

func TestResolutionFailureAfterRetries(t *testing.T) {
	loop := sim.New(1)
	n := link.NewNetwork(loop, "net", link.Ethernet())
	a := newHost(t, loop, n, "a", "10.0.0.1", Config{RequestTimeout: 100 * time.Millisecond, MaxRetries: 3})
	a.cache.SendIP(ip.MustParseAddr("10.0.0.99"), []byte("lost"), 0)
	loop.RunFor(time.Second)
	st := a.cache.Stats()
	if st.RequestsSent != 3 {
		t.Fatalf("requests = %d, want 3", st.RequestsSent)
	}
	if st.ResolveFailures != 1 || st.PacketsDropped != 1 {
		t.Fatalf("failures=%d dropped=%d", st.ResolveFailures, st.PacketsDropped)
	}
	// A host that appears later must be resolvable afresh.
	b := newHost(t, loop, n, "b", "10.0.0.99", Config{})
	a.cache.SendIP(b.addrs[0], []byte("now"), 0)
	loop.RunFor(time.Second)
	if len(b.rxIP) != 1 {
		t.Fatal("later resolution failed")
	}
}

func TestEntryExpiry(t *testing.T) {
	loop := sim.New(1)
	n := link.NewNetwork(loop, "net", link.Ethernet())
	a := newHost(t, loop, n, "a", "10.0.0.1", Config{EntryTTL: time.Second})
	b := newHost(t, loop, n, "b", "10.0.0.2", Config{})
	a.cache.SendIP(b.addrs[0], []byte("x"), 0)
	loop.RunFor(500 * time.Millisecond)
	if _, ok := a.cache.Lookup(b.addrs[0]); !ok {
		t.Fatal("entry missing before TTL")
	}
	loop.RunFor(time.Second)
	if _, ok := a.cache.Lookup(b.addrs[0]); ok {
		t.Fatal("entry survived past TTL")
	}
}

func TestProxyARP(t *testing.T) {
	loop := sim.New(1)
	n := link.NewNetwork(loop, "net", link.Ethernet())
	a := newHost(t, loop, n, "a", "10.0.0.1", Config{})
	ha := newHost(t, loop, n, "ha", "10.0.0.250", Config{})
	mobile := ip.MustParseAddr("10.0.0.7") // not present on the link

	ha.cache.Publish(mobile)
	if !ha.cache.Published(mobile) {
		t.Fatal("Published() false after Publish")
	}
	a.cache.SendIP(mobile, []byte("for the mobile host"), 0)
	loop.RunFor(time.Second)

	// The proxy answered with its own hardware address, so the packet
	// lands on the home agent.
	if len(ha.rxIP) != 1 {
		t.Fatalf("proxy received %d packets", len(ha.rxIP))
	}
	if hw, ok := a.cache.Lookup(mobile); !ok || hw != ha.dev.HW() {
		t.Fatal("a's cache does not map the mobile address to the proxy")
	}
	if ha.cache.Stats().ProxyReplies != 1 {
		t.Fatalf("ProxyReplies = %d", ha.cache.Stats().ProxyReplies)
	}

	ha.cache.Unpublish(mobile)
	a.cache.Delete(mobile)
	a.cache.SendIP(mobile, []byte("after unpublish"), 0)
	loop.RunFor(2 * time.Second)
	if len(ha.rxIP) != 1 {
		t.Fatal("proxy still answering after Unpublish")
	}
}

// TestGratuitousARPVoidsStaleEntries is the paper's home-agent scenario:
// hosts on the home subnet hold an ARP entry for the mobile host; when it
// leaves and the home agent takes over, a gratuitous ARP must repoint those
// entries at the agent.
func TestGratuitousARPVoidsStaleEntries(t *testing.T) {
	loop := sim.New(1)
	n := link.NewNetwork(loop, "net", link.Ethernet())
	ch := newHost(t, loop, n, "ch", "10.0.0.1", Config{})
	mh := newHost(t, loop, n, "mh", "10.0.0.7", Config{})
	ha := newHost(t, loop, n, "ha", "10.0.0.250", Config{})

	// Correspondent talks to the mobile host directly while it is home.
	ch.cache.SendIP(mh.addrs[0], []byte("direct"), 0)
	loop.RunFor(time.Second)
	if hw, _ := ch.cache.Lookup(mh.addrs[0]); hw != mh.dev.HW() {
		t.Fatal("setup: ch should map mh to mh's hardware")
	}

	// Mobile host leaves; home agent proxies and broadcasts gratuitous ARP.
	mh.dev.BringDown()
	ha.cache.Publish(mh.addrs[0])
	ha.cache.Gratuitous(mh.addrs[0], ha.dev.HW())
	loop.RunFor(time.Second)

	if hw, ok := ch.cache.Lookup(mh.addrs[0]); !ok || hw != ha.dev.HW() {
		t.Fatalf("stale entry not voided: %v %v", hw, ok)
	}
	ch.cache.SendIP(mh.addrs[0], []byte("via proxy"), 0)
	loop.RunFor(time.Second)
	if len(ha.rxIP) != 1 {
		t.Fatal("packet did not reach the home agent after gratuitous ARP")
	}
}

func TestGratuitousDoesNotCreateEntries(t *testing.T) {
	loop := sim.New(1)
	n := link.NewNetwork(loop, "net", link.Ethernet())
	a := newHost(t, loop, n, "a", "10.0.0.1", Config{})
	b := newHost(t, loop, n, "b", "10.0.0.2", Config{})
	b.cache.Gratuitous(b.addrs[0], b.dev.HW())
	loop.RunFor(time.Second)
	// a had no entry for b, so the gratuitous ARP should not create one
	// (only update existing mappings).
	if _, ok := a.cache.Lookup(b.addrs[0]); ok {
		t.Fatal("gratuitous ARP created a fresh entry")
	}
}

func TestStaticEntry(t *testing.T) {
	loop := sim.New(1)
	n := link.NewNetwork(loop, "net", link.Ethernet())
	a := newHost(t, loop, n, "a", "10.0.0.1", Config{EntryTTL: time.Millisecond})
	hw := link.HWAddr{9, 9, 9, 9, 9, 9}
	target := ip.MustParseAddr("10.0.0.55")
	a.cache.AddStatic(target, hw)
	loop.RunFor(time.Hour)
	if got, ok := a.cache.Lookup(target); !ok || got != hw {
		t.Fatal("static entry expired")
	}
	a.cache.Delete(target)
	if _, ok := a.cache.Lookup(target); ok {
		t.Fatal("Delete did not remove static entry")
	}
}

func TestRequestForOtherHostIgnored(t *testing.T) {
	loop := sim.New(1)
	n := link.NewNetwork(loop, "net", link.Ethernet())
	a := newHost(t, loop, n, "a", "10.0.0.1", Config{})
	b := newHost(t, loop, n, "b", "10.0.0.2", Config{})
	_ = b
	c := newHost(t, loop, n, "c", "10.0.0.3", Config{})
	a.cache.SendIP(b.addrs[0], []byte("x"), 0)
	loop.RunFor(time.Second)
	if c.cache.Stats().RepliesSent != 0 {
		t.Fatal("c answered a request for b")
	}
}

func TestBroadcastIP(t *testing.T) {
	loop := sim.New(1)
	n := link.NewNetwork(loop, "net", link.Ethernet())
	a := newHost(t, loop, n, "a", "10.0.0.1", Config{})
	b := newHost(t, loop, n, "b", "10.0.0.2", Config{})
	c := newHost(t, loop, n, "c", "10.0.0.3", Config{})
	a.cache.SendBroadcastIP([]byte("dhcp discover"), 0)
	loop.RunFor(time.Second)
	if len(b.rxIP) != 1 || len(c.rxIP) != 1 {
		t.Fatalf("broadcast reached b=%d c=%d", len(b.rxIP), len(c.rxIP))
	}
	if a.cache.Stats().RequestsSent != 0 {
		t.Fatal("broadcast send triggered ARP")
	}
}

func TestMalformedFrameIgnored(t *testing.T) {
	loop := sim.New(1)
	n := link.NewNetwork(loop, "net", link.Ethernet())
	a := newHost(t, loop, n, "a", "10.0.0.1", Config{})
	a.cache.HandleFrame(&link.Frame{Type: link.EtherTypeARP, Payload: []byte{1, 2, 3}})
	if len(a.cache.entries) != 0 {
		t.Fatal("malformed frame mutated cache")
	}
}

// TestAddressTakeover models the same-subnet address switch of the paper's
// first experiment: the mobile host adopts a new address and announces it;
// traffic to the new address must reach it without waiting for cache
// timeouts.
func TestAddressTakeover(t *testing.T) {
	loop := sim.New(1)
	n := link.NewNetwork(loop, "net", link.Ethernet())
	ch := newHost(t, loop, n, "ch", "10.0.0.1", Config{})
	mh := newHost(t, loop, n, "mh", "10.0.0.7", Config{})

	newAddr := ip.MustParseAddr("10.0.0.8")
	mh.addrs = []ip.Addr{newAddr} // rebind
	ch.cache.SendIP(newAddr, []byte("to the new address"), 0)
	loop.RunFor(time.Second)
	if len(mh.rxIP) != 1 {
		t.Fatalf("mh received %d packets at its new address", len(mh.rxIP))
	}
}
