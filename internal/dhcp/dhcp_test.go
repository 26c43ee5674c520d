package dhcp

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/stack"
	"mosquitonet/internal/transport"
)

// env is one subnet with a DHCP server and n client hosts.
type env struct {
	loop    *sim.Loop
	net     *link.Network
	server  *Server
	srvHost *stack.Host
}

func newEnv(t *testing.T, cfg ServerConfig) *env {
	t.Helper()
	loop := sim.New(1)
	n := link.NewNetwork(loop, "net", link.Ethernet())
	h := stack.NewHost(loop, "dhcp-server", stack.Config{})
	d := link.NewDevice(loop, "eth0", 0, 0)
	d.Attach(n)
	d.BringUp(nil)
	ifc := h.AddIface("eth0", d, ip.MustParseAddr("10.0.0.1"), ip.MustParsePrefix("10.0.0.0/24"), stack.IfaceOpts{})
	h.ConnectRoute(ifc)
	ts := transport.NewStack(h)
	if cfg.Pool.Bits == 0 {
		cfg.Pool = ip.MustParsePrefix("10.0.0.0/24")
	}
	if cfg.Gateway.IsUnspecified() {
		cfg.Gateway = ip.MustParseAddr("10.0.0.1")
	}
	srv, err := NewServer(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	loop.RunFor(0)
	return &env{loop: loop, net: n, server: srv, srvHost: h}
}

// addClient creates a host with an unconfigured interface plus a client.
func (e *env) addClient(t *testing.T, name string) (*Client, *stack.Iface) {
	t.Helper()
	h := stack.NewHost(e.loop, name, stack.Config{})
	d := link.NewDevice(e.loop, name+"-eth0", 0, 0)
	d.Attach(e.net)
	d.BringUp(nil)
	ifc := h.AddIface("eth0", d, ip.Unspecified, ip.Prefix{}, stack.IfaceOpts{})
	ts := transport.NewStack(h)
	c, err := NewClient(ts, ifc, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	e.loop.RunFor(0)
	return c, ifc
}

func TestMessageRoundTrip(t *testing.T) {
	f := func(typ uint8, xid uint32, hw [6]byte, ca, ya, sa, ra, gw [4]byte, bits uint8, secs uint32) bool {
		m := &Message{
			Type: MsgType(typ), XID: xid, ClientHW: hw,
			ClientAddr: ca, YourAddr: ya, ServerAddr: sa, RequestedAddr: ra,
			PrefixBits: bits, Gateway: gw, LeaseSecs: secs,
		}
		got, err := Unmarshal(m.Marshal())
		return err == nil && *got == *m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1996))}); err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(make([]byte, 10)); err != ErrShortMessage {
		t.Fatalf("short: %v", err)
	}
}

func TestAcquireLease(t *testing.T) {
	e := newEnv(t, ServerConfig{})
	c, _ := e.addClient(t, "mh")
	var got Lease
	var gotErr error
	done := false
	c.Acquire(func(l Lease, err error) { got, gotErr, done = l, err, true })
	e.loop.RunFor(5 * time.Second)
	if !done || gotErr != nil {
		t.Fatalf("acquire: done=%v err=%v", done, gotErr)
	}
	if !ip.MustParsePrefix("10.0.0.0/24").Contains(got.Addr) {
		t.Fatalf("leased address %v outside pool", got.Addr)
	}
	if got.Gateway != ip.MustParseAddr("10.0.0.1") || got.Prefix.Bits != 24 {
		t.Fatalf("lease details: %v", got)
	}
	if got.Addr == ip.MustParseAddr("10.0.0.1") {
		t.Fatal("server handed out its own/gateway address")
	}
	if l, ok := c.Lease(); !ok || l.Addr != got.Addr {
		t.Fatal("Lease() disagrees")
	}
}

func TestDistinctClientsDistinctAddresses(t *testing.T) {
	e := newEnv(t, ServerConfig{})
	seen := map[ip.Addr]bool{}
	for i := 0; i < 10; i++ {
		c, _ := e.addClient(t, "mh")
		var got Lease
		c.Acquire(func(l Lease, err error) {
			if err != nil {
				t.Fatal(err)
			}
			got = l
		})
		e.loop.RunFor(5 * time.Second)
		if seen[got.Addr] {
			t.Fatalf("address %v leased twice", got.Addr)
		}
		seen[got.Addr] = true
	}
}

func TestSameClientKeepsAddress(t *testing.T) {
	e := newEnv(t, ServerConfig{})
	c, _ := e.addClient(t, "mh")
	var first, second Lease
	c.Acquire(func(l Lease, err error) { first = l })
	e.loop.RunFor(5 * time.Second)
	c.Acquire(func(l Lease, err error) { second = l })
	e.loop.RunFor(5 * time.Second)
	if first.Addr != second.Addr {
		t.Fatalf("re-acquisition changed address: %v -> %v", first.Addr, second.Addr)
	}
}

func TestAcquireTimeoutWithoutServer(t *testing.T) {
	loop := sim.New(1)
	n := link.NewNetwork(loop, "net", link.Ethernet())
	h := stack.NewHost(loop, "mh", stack.Config{})
	d := link.NewDevice(loop, "eth0", 0, 0)
	d.Attach(n)
	d.BringUp(nil)
	ifc := h.AddIface("eth0", d, ip.Unspecified, ip.Prefix{}, stack.IfaceOpts{})
	c, err := NewClient(transport.NewStack(h), ifc, ClientConfig{RetryInterval: 100 * time.Millisecond, MaxRetries: 3})
	if err != nil {
		t.Fatal(err)
	}
	loop.RunFor(0)
	var gotErr error
	c.Acquire(func(l Lease, err error) { gotErr = err })
	loop.RunFor(10 * time.Second)
	if gotErr != ErrAcquireTimeout {
		t.Fatalf("err = %v", gotErr)
	}
}

func TestRenewalExtendsLease(t *testing.T) {
	e := newEnv(t, ServerConfig{})
	c, _ := e.addClient(t, "mh")
	renewed := 0
	expired := false
	c.OnRenewed = func(Lease) { renewed++ }
	c.OnExpired = func() { expired = true }
	c.Acquire(func(l Lease, err error) {
		if err != nil {
			t.Fatal(err)
		}
	})
	e.loop.RunFor(2*leaseDuration + leaseDuration/4)
	if renewed < 3 {
		t.Fatalf("renewed %d times over %v with %v leases", renewed, 2*leaseDuration+leaseDuration/4, leaseDuration)
	}
	if expired {
		t.Fatal("lease expired despite renewals")
	}
	if _, ok := c.Lease(); !ok {
		t.Fatal("lease lost")
	}
}

func TestLeaseExpiresWhenServerGone(t *testing.T) {
	e := newEnv(t, ServerConfig{})
	c, _ := e.addClient(t, "mh")
	expired := false
	c.OnExpired = func() { expired = true }
	c.Acquire(func(l Lease, err error) {
		if err != nil {
			t.Fatal(err)
		}
	})
	e.loop.RunFor(time.Second)
	// Server vanishes.
	for _, ifc := range e.srvHost.Ifaces() {
		if ifc.Device() != nil {
			ifc.Device().BringDown()
		}
	}
	e.loop.RunFor(2 * leaseDuration)
	if !expired {
		t.Fatal("lease did not expire without renewals")
	}
	if _, ok := c.Lease(); ok {
		t.Fatal("expired lease still reported")
	}
}

// TestLRUAvoidsQuickReuse is the paper's security point: a released address
// must not be reassigned while fresh alternatives exist.
func TestLRUAvoidsQuickReuse(t *testing.T) {
	e := newEnv(t, ServerConfig{})
	first, _ := e.addClient(t, "mh1")
	var departed Lease
	first.Acquire(func(l Lease, err error) { departed = l })
	e.loop.RunFor(5 * time.Second)
	first.Release()
	e.loop.RunFor(time.Second)

	// A stream of new clients must drain the never-used pool before the
	// released address reappears.
	for i := 0; i < 5; i++ {
		c, _ := e.addClient(t, "new")
		var got Lease
		c.Acquire(func(l Lease, err error) {
			if err != nil {
				t.Fatal(err)
			}
			got = l
		})
		e.loop.RunFor(5 * time.Second)
		if got.Addr == departed.Addr {
			t.Fatalf("released address %v reused while fresh addresses remain", departed.Addr)
		}
	}
}

func TestPoolExhaustionAndNak(t *testing.T) {
	e := newEnv(t, ServerConfig{FirstHost: 2, LastHost: 3}) // 10.0.0.2, 10.0.0.3 only
	var errs, oks int
	for i := 0; i < 4; i++ {
		c, _ := e.addClient(t, "mh")
		c.Acquire(func(l Lease, err error) {
			if err != nil {
				errs++
			} else {
				oks++
			}
		})
		e.loop.RunFor(10 * time.Second)
	}
	if oks != 2 || errs != 2 {
		t.Fatalf("oks=%d errs=%d, want 2/2", oks, errs)
	}
	if e.server.Stats().Exhausted == 0 {
		t.Fatal("exhaustion not counted")
	}
}

func TestReleaseFreesAddress(t *testing.T) {
	e := newEnv(t, ServerConfig{FirstHost: 2, LastHost: 2}) // single address
	c1, _ := e.addClient(t, "mh1")
	var l1 Lease
	c1.Acquire(func(l Lease, err error) { l1 = l })
	e.loop.RunFor(5 * time.Second)
	c1.Release()
	e.loop.RunFor(time.Second)

	c2, _ := e.addClient(t, "mh2")
	var l2 Lease
	var err2 error
	c2.Acquire(func(l Lease, err error) { l2, err2 = l, err })
	e.loop.RunFor(10 * time.Second)
	if err2 != nil {
		t.Fatalf("second acquire failed: %v", err2)
	}
	if l2.Addr != l1.Addr {
		t.Fatalf("single-address pool: got %v want %v", l2.Addr, l1.Addr)
	}
}

func TestLeaseForServerView(t *testing.T) {
	e := newEnv(t, ServerConfig{})
	c, ifc := e.addClient(t, "mh")
	var got Lease
	c.Acquire(func(l Lease, err error) { got = l })
	e.loop.RunFor(5 * time.Second)
	if a, ok := e.server.LeaseFor(ifc.Device().HW()); !ok || a != got.Addr {
		t.Fatalf("server lease view: %v %v", a, ok)
	}
	if _, ok := e.server.LeaseFor(link.HWAddr{9, 9, 9, 9, 9, 9}); ok {
		t.Fatal("lease invented for unknown client")
	}
}

func TestAcquireBusy(t *testing.T) {
	e := newEnv(t, ServerConfig{})
	c, _ := e.addClient(t, "mh")
	c.Acquire(func(Lease, error) {})
	if err := c.Acquire(func(Lease, error) {}); err != ErrBusy {
		t.Fatalf("second Acquire: %v", err)
	}
}

func TestTwoClientsOnOneHost(t *testing.T) {
	// A mobile host runs a client per interface; acquiring on the second
	// interface while the first lease renews must work.
	e := newEnv(t, ServerConfig{})
	h := stack.NewHost(e.loop, "mh", stack.Config{})
	ts := transport.NewStack(h)
	mkIfc := func(name string) *stack.Iface {
		d := link.NewDevice(e.loop, name, 0, 0)
		d.Attach(e.net)
		d.BringUp(nil)
		return h.AddIface(name, d, ip.Unspecified, ip.Prefix{}, stack.IfaceOpts{})
	}
	i1, i2 := mkIfc("eth0"), mkIfc("eth1")
	c1, err := NewClient(ts, i1, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewClient(ts, i2, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	e.loop.RunFor(0)

	var l1, l2 Lease
	c1.Acquire(func(l Lease, err error) {
		if err != nil {
			t.Fatal(err)
		}
		l1 = l
		i1.SetAddr(l.Addr, l.Prefix)
	})
	// The second acquisition straddles the first lease's renewal, at half
	// its duration.
	e.loop.RunFor(leaseDuration/2 - 5*time.Second)
	renewed := 0
	c1.OnRenewed = func(Lease) { renewed++ }
	c2.Acquire(func(l Lease, err error) {
		if err != nil {
			t.Fatal(err)
		}
		l2 = l
	})
	e.loop.RunFor(10 * time.Second)
	if l1.Addr == l2.Addr || l1.Addr.IsUnspecified() || l2.Addr.IsUnspecified() {
		t.Fatalf("leases %v / %v", l1.Addr, l2.Addr)
	}
	if renewed == 0 {
		t.Fatal("first lease stopped renewing during second acquisition")
	}
}

func TestStopAbandonsExchange(t *testing.T) {
	e := newEnv(t, ServerConfig{})
	c, _ := e.addClient(t, "mh")
	called := false
	c.Acquire(func(Lease, error) { called = true })
	c.Stop()
	e.loop.RunFor(10 * time.Second)
	if called {
		t.Fatal("callback fired after Stop")
	}
	// Client is reusable afterwards.
	var err2 error
	ok := false
	c.Acquire(func(l Lease, err error) { err2, ok = err, true })
	e.loop.RunFor(5 * time.Second)
	if !ok || err2 != nil {
		t.Fatalf("reuse after Stop: ok=%v err=%v", ok, err2)
	}
}

func TestMsgTypeString(t *testing.T) {
	for typ, want := range map[MsgType]string{
		Discover: "DISCOVER", Offer: "OFFER", Request: "REQUEST",
		Ack: "ACK", Nak: "NAK", Release: "RELEASE", 99: "dhcp(99)",
	} {
		if typ.String() != want {
			t.Errorf("%d -> %q", typ, typ.String())
		}
	}
}
