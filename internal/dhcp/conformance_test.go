package dhcp

import (
	"encoding/binary"
	"testing"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/stack"
	"mosquitonet/internal/transport"
)

// The dhcp layer's rows of the conformance table: each cites the RFC 2131
// rule it holds the client or server to and observes a server counter or a
// message seen on the wire through Network.AddTap.

// seenMsg is one DHCP message as it crossed the wire.
type seenMsg struct {
	at       sim.Time
	hwDst    link.HWAddr // the frame's destination
	src, dst ip.Addr     // the IP header's addresses
	msg      Message
}

// tapDHCP records every DHCP message offered to e's segment.
func tapDHCP(t *testing.T, e *env) *[]seenMsg {
	t.Helper()
	var seen []seenMsg
	e.net.AddTap(func(_ *link.Device, f *link.Frame) {
		if f.Type != link.EtherTypeIPv4 {
			return
		}
		p, err := ip.Unmarshal(f.Payload)
		if err != nil || p.Protocol != ip.ProtoUDP || len(p.Payload) < 8 {
			return
		}
		if sp, dp := binary.BigEndian.Uint16(p.Payload), binary.BigEndian.Uint16(p.Payload[2:]); sp != ServerPort && sp != ClientPort || dp != ServerPort && dp != ClientPort {
			return
		}
		m, err := Unmarshal(p.Payload[8:])
		if err != nil {
			t.Fatalf("malformed DHCP message on the wire: %v", err)
		}
		seen = append(seen, seenMsg{e.loop.Now(), f.Dst, p.Src, p.Dst, *m})
	})
	return &seen
}

// ofType returns the messages of type typ, in wire order.
func ofType(seen []seenMsg, typ MsgType) []seenMsg {
	var out []seenMsg
	for _, s := range seen {
		if s.msg.Type == typ {
			out = append(out, s)
		}
	}
	return out
}

// bound acquires a lease for c and fails the test without one.
func bound(t *testing.T, e *env, c *Client) Lease {
	t.Helper()
	var got Lease
	var gotErr error
	c.Acquire(func(l Lease, err error) { got, gotErr = l, err })
	e.loop.RunFor(5 * time.Second)
	if gotErr != nil || got.Addr.IsUnspecified() {
		t.Fatalf("acquire: lease %v, err %v", got, gotErr)
	}
	return got
}

func TestDHCPConformance(t *testing.T) {
	serverAddr := ip.MustParseAddr("10.0.0.1")
	serverHW := func(e *env) link.HWAddr {
		for _, ifc := range e.srvHost.Ifaces() {
			if ifc.Addr() == serverAddr {
				return ifc.Device().HW()
			}
		}
		t.Fatal("the server has no interface on its address")
		return link.HWAddr{}
	}
	rows := []struct {
		name, cite, rule string
		check            func(t *testing.T)
	}{
		{"discover_broadcast", "RFC 2131 §4.1, §4.4.1",
			"a client with no address broadcasts DHCPDISCOVER from 0.0.0.0 to 255.255.255.255",
			func(t *testing.T) {
				e := newEnv(t, ServerConfig{})
				seen := tapDHCP(t, e)
				c, _ := e.addClient(t, "mh")
				bound(t, e, c)
				d := ofType(*seen, Discover)
				if len(d) != 1 {
					t.Fatalf("%d DISCOVERs on the wire, want 1", len(d))
				}
				if d[0].src != ip.Unspecified || d[0].dst != ip.Broadcast || d[0].hwDst != link.BroadcastHW {
					t.Errorf("DISCOVER %v -> %v (frame to %v), want 0.0.0.0 -> 255.255.255.255 on the broadcast address", d[0].src, d[0].dst, d[0].hwDst)
				}
			}},
		{"offer_from_pool", "RFC 2131 §4.3.1",
			"yiaddr in a DHCPOFFER is a free address of the server's pool, not one leased to another client",
			func(t *testing.T) {
				e := newEnv(t, ServerConfig{})
				seen := tapDHCP(t, e)
				first, _ := e.addClient(t, "mh1")
				held := bound(t, e, first)
				second, _ := e.addClient(t, "mh2")
				bound(t, e, second)
				o := ofType(*seen, Offer)
				if len(o) != 2 {
					t.Fatalf("%d OFFERs on the wire, want 2", len(o))
				}
				y := o[1].msg.YourAddr
				if !ip.MustParsePrefix("10.0.0.0/24").Contains(y) || y == serverAddr || y == held.Addr {
					t.Errorf("second OFFER's yiaddr %v: want a pool address other than the server's %v and the first client's %v", y, serverAddr, held.Addr)
				}
			}},
		{"nak_other_address", "RFC 2131 §4.3.2",
			"a DHCPREQUEST naming an address that is not the client's to have is answered with DHCPNAK",
			func(t *testing.T) {
				e := newEnv(t, ServerConfig{})
				seen := tapDHCP(t, e)
				owner, _ := e.addClient(t, "mh1")
				held := bound(t, e, owner)
				// Another client asks for the first one's address outright.
				h := stack.NewHost(e.loop, "rogue", stack.Config{})
				d := link.NewDevice(e.loop, "rogue-eth0", 0, 0)
				d.Attach(e.net)
				d.BringUp(nil)
				ifc := h.AddIface("eth0", d, ip.Unspecified, ip.Prefix{}, stack.IfaceOpts{})
				sock, err := transport.NewStack(h).UDP(ip.Unspecified, ClientPort, func(transport.Datagram) {})
				if err != nil {
					t.Fatal(err)
				}
				e.loop.RunFor(0)
				req := &Message{Type: Request, XID: 7, ClientHW: d.HW(), RequestedAddr: held.Addr, ServerAddr: serverAddr}
				sock.SendToVia(ifc, ip.Broadcast, ip.Broadcast, ServerPort, req.Marshal())
				e.loop.RunFor(time.Second)
				n := ofType(*seen, Nak)
				if len(n) != 1 || n[0].msg.ClientHW != d.HW() || n[0].msg.XID != 7 {
					t.Fatalf("NAKs on the wire %+v, want one to %v", n, d.HW())
				}
				if s := e.server.Stats(); s.Naks != 1 {
					t.Errorf("server Naks = %d, want 1", s.Naks)
				}
				if a, ok := e.server.LeaseFor(owner.hw); !ok || a != held.Addr {
					t.Errorf("the owner's lease after the NAK: %v %v, want %v", a, ok, held.Addr)
				}
			}},
		{"t1_renewal", "RFC 2131 §4.4.5",
			"at T1, half the lease, the client unicasts DHCPREQUEST to the server that granted it, ciaddr its address",
			func(t *testing.T) {
				e := newEnv(t, ServerConfig{})
				seen := tapDHCP(t, e)
				c, _ := e.addClient(t, "mh")
				l := bound(t, e, c)
				before := len(ofType(*seen, Request))
				e.loop.RunFor(leaseDuration / 2)
				r := ofType(*seen, Request)[before:]
				if len(r) != 1 {
					t.Fatalf("%d REQUESTs in the first half lease after binding, want 1", len(r))
				}
				t1 := l.Acquired.Add(leaseDuration / 2)
				if r[0].at < t1 || r[0].at > t1.Add(10*time.Millisecond) {
					t.Errorf("renewal sent at %v, want at T1 = %v", r[0].at, t1)
				}
				if r[0].src != l.Addr || r[0].dst != serverAddr || r[0].hwDst != serverHW(e) || r[0].msg.ClientAddr != l.Addr {
					t.Errorf("renewal %v -> %v (frame to %v, ciaddr %v), want %v -> %v unicast to %v", r[0].src, r[0].dst, r[0].hwDst, r[0].msg.ClientAddr, l.Addr, serverAddr, serverHW(e))
				}
			}},
		{"release_unicast", "RFC 2131 §4.4.6",
			"DHCPRELEASE goes unicast to the server, ciaddr the released address, and frees it",
			func(t *testing.T) {
				e := newEnv(t, ServerConfig{})
				seen := tapDHCP(t, e)
				c, _ := e.addClient(t, "mh")
				l := bound(t, e, c)
				c.Release()
				e.loop.RunFor(time.Second)
				r := ofType(*seen, Release)
				if len(r) != 1 {
					t.Fatalf("%d RELEASEs on the wire, want 1", len(r))
				}
				if r[0].dst != serverAddr || r[0].hwDst != serverHW(e) || r[0].msg.ClientAddr != l.Addr {
					t.Errorf("RELEASE to %v (frame to %v, ciaddr %v), want unicast to %v, ciaddr %v", r[0].dst, r[0].hwDst, r[0].msg.ClientAddr, serverAddr, l.Addr)
				}
				if s := e.server.Stats(); s.Releases != 1 {
					t.Errorf("server Releases = %d, want 1", s.Releases)
				}
				if _, ok := e.server.LeaseFor(c.hw); ok {
					t.Error("the server still holds the released lease")
				}
			}},
		{"t2_rebinding", "RFC 2131 §4.4.5",
			"an unanswered T1 renewal is followed at T2, 0.875 of the lease, by DHCPREQUEST broadcast to any server, ciaddr the client's address and no server identifier; an unanswered rebinding leaves the lease to expire at its end",
			func(t *testing.T) {
				e := newEnv(t, ServerConfig{})
				seen := tapDHCP(t, e)
				c, _ := e.addClient(t, "mh")
				var expiredAt sim.Time
				c.OnExpired = func() { expiredAt = e.loop.Now() }
				l := bound(t, e, c)
				e.server.sock.Close() // the server stops answering
				before := len(ofType(*seen, Request))
				e.loop.RunFor(leaseDuration)
				r := ofType(*seen, Request)[before:]
				if len(r) != 2 {
					t.Fatalf("REQUESTs after binding %+v, want the T1 unicast and the T2 broadcast", r)
				}
				t1, t2 := l.Acquired.Add(leaseDuration/2), l.Acquired.Add(leaseDuration*7/8)
				if r[0].at < t1 || r[0].at > t1.Add(10*time.Millisecond) || r[0].dst != serverAddr || r[0].hwDst != serverHW(e) {
					t.Errorf("first REQUEST at %v to %v (frame to %v), want the unicast renewal at T1 = %v", r[0].at, r[0].dst, r[0].hwDst, t1)
				}
				if r[1].at < t2 || r[1].at > t2.Add(10*time.Millisecond) {
					t.Errorf("rebinding sent at %v, want at T2 = %v", r[1].at, t2)
				}
				if r[1].src != l.Addr || r[1].dst != ip.Broadcast || r[1].hwDst != link.BroadcastHW || r[1].msg.ClientAddr != l.Addr || !r[1].msg.ServerAddr.IsUnspecified() {
					t.Errorf("rebinding %v -> %v (frame to %v, ciaddr %v, server id %v), want %v -> 255.255.255.255 broadcast, ciaddr %v, no server id",
						r[1].src, r[1].dst, r[1].hwDst, r[1].msg.ClientAddr, r[1].msg.ServerAddr, l.Addr, l.Addr)
				}
				if want := l.Acquired.Add(leaseDuration); expiredAt != want {
					t.Errorf("lease expired at %v, want at its end %v", expiredAt, want)
				}
			}},
		{"t2_rebinding_answered", "RFC 2131 §4.4.5",
			"a server that answers the T2 broadcast extends the lease: it does not expire, and the next T1 falls half a lease after the answer",
			func(t *testing.T) {
				e := newEnv(t, ServerConfig{})
				seen := tapDHCP(t, e)
				c, _ := e.addClient(t, "mh")
				expired := false
				c.OnExpired = func() { expired = true }
				l := bound(t, e, c)
				// The server hears nothing, the T1 unicast included, until just
				// before T2.
				e.server.sock.Close()
				e.loop.RunUntil(l.Acquired.Add(leaseDuration*7/8 - time.Second))
				sock, err := e.server.ts.UDP(ip.Unspecified, ServerPort, e.server.input)
				if err != nil {
					t.Fatal(err)
				}
				e.server.sock = sock
				e.loop.RunFor(2 * time.Second)
				got, ok := c.Lease()
				if !ok || got.Acquired <= l.Acquired.Add(leaseDuration*7/8-time.Second) || expired {
					t.Fatalf("after the T2 broadcast: lease %+v bound=%v expired=%v, want it extended at T2", got, ok, expired)
				}
				if a := ofType(*seen, Ack); len(a) < 2 || a[len(a)-1].dst != l.Addr {
					t.Errorf("ACKs %+v, want the rebinding answered to %v", a, l.Addr)
				}
				before := len(ofType(*seen, Request))
				e.loop.RunUntil(got.Acquired.Add(leaseDuration/2 + time.Second))
				r := ofType(*seen, Request)[before:]
				if t1 := got.Acquired.Add(leaseDuration / 2); len(r) != 1 || r[0].at < t1 || r[0].at > t1.Add(10*time.Millisecond) || r[0].dst != serverAddr {
					t.Errorf("REQUESTs after the answered rebinding %+v, want one unicast renewal at %v", r, t1)
				}
			}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			t.Logf("%s: %s", r.cite, r.rule)
			r.check(t)
		})
	}
}
