package ip_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/stack"
	"mosquitonet/internal/transport"
	"mosquitonet/internal/tunnel"
)

// exchange is everything one run of the oracle's world produced that a
// packet's provenance could conceivably change: what was delivered, in
// order, what every layer counted, and how many events it took.
type exchange struct {
	Echoed    [][]byte
	Pings     []stack.PingResult
	Hosts     map[string]stack.Stats
	Reasm     map[string]ip.ReassemblerStats
	Tunnels   map[string]tunnel.Stats
	Transport map[string]transport.Stats
	Executed  uint64
	End       sim.Time
}

// runExchange builds mh -- foreign (MTU 600) -- router -- home -- {ha, ch}
// and has mh send seeded datagrams of up to 3,000 bytes to ch through an
// IP-in-IP tunnel to ha: the outer packets fragment at mh, cross the router
// in pieces, are reassembled and decapsulated at ha and forwarded to ch,
// whose echo comes back the direct way and is fragmented by the router.
// Every constructor is on the path: senders, the receivers' parse,
// Encapsulate, Decapsulate, the reassembler, ICMP for the pings. made is the
// number of packets the loop's pool handed out.
func runExchange(t *testing.T, seed int64) (res exchange, made uint64) {
	t.Helper()
	loop := sim.New(seed)
	narrow := link.Ethernet()
	narrow.MTU = 600
	foreign := link.NewNetwork(loop, "foreign", narrow)
	home := link.NewNetwork(loop, "home", link.Ethernet())
	hosts := map[string]*stack.Host{}
	attach := func(h *stack.Host, dev, addr, cidr string, n *link.Network) *stack.Iface {
		d := link.NewDevice(loop, h.Name()+"-"+dev, 0, 0)
		d.Attach(n)
		d.BringUp(nil)
		ifc := h.AddIface(dev, d, ip.MustParseAddr(addr), ip.MustParsePrefix(cidr), stack.IfaceOpts{})
		h.ConnectRoute(ifc)
		return ifc
	}
	mk := func(name string) *stack.Host {
		h := stack.NewHost(loop, name, stack.Config{InputDelay: 30 * time.Microsecond, OutputDelay: 20 * time.Microsecond, ForwardDelay: 10 * time.Microsecond})
		hosts[name] = h
		return h
	}
	mh, router, ha, ch := mk("mh"), mk("router"), mk("ha"), mk("ch")
	mhAddr, haAddr, chAddr := ip.MustParseAddr("10.0.0.2"), ip.MustParseAddr("10.0.1.2"), ip.MustParseAddr("10.0.1.3")
	mhIfc := attach(mh, "eth0", "10.0.0.2", "10.0.0.0/24", foreign)
	attach(router, "eth0", "10.0.0.1", "10.0.0.0/24", foreign)
	attach(router, "eth1", "10.0.1.1", "10.0.1.0/24", home)
	haIfc := attach(ha, "eth0", "10.0.1.2", "10.0.1.0/24", home)
	chIfc := attach(ch, "eth0", "10.0.1.3", "10.0.1.0/24", home)
	router.SetForwarding(true)
	ha.SetForwarding(true)
	mh.AddDefaultRoute(ip.MustParseAddr("10.0.0.1"), mhIfc)
	ha.AddDefaultRoute(ip.MustParseAddr("10.0.1.1"), haIfc)
	ch.AddDefaultRoute(ip.MustParseAddr("10.0.1.1"), chIfc)

	tunnels := map[string]*tunnel.Endpoint{
		"mh": tunnel.New(mh, "vif0",
			func() (ip.Addr, bool) { return mhAddr, true },
			func(*ip.Packet) (ip.Addr, bool) { return haAddr, true }),
		"ha": tunnel.New(ha, "vif0",
			func() (ip.Addr, bool) { return haAddr, true },
			func(*ip.Packet) (ip.Addr, bool) { return mhAddr, true }),
	}
	mh.Routes().Add(stack.Route{Dst: ip.Prefix{Addr: chAddr, Bits: 32}, Iface: tunnels["mh"].Iface()})

	stacks := map[string]*transport.Stack{"mh": transport.NewStack(mh), "ch": transport.NewStack(ch)}
	var echo *transport.UDPSocket
	echo, err := stacks["ch"].UDP(ip.Unspecified, 7, func(d transport.Datagram) {
		if err := echo.SendTo(d.From, d.FromPort, d.Payload); err != nil {
			t.Errorf("echo: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	sock, err := stacks["mh"].UDP(mhAddr, 4000, func(d transport.Datagram) {
		res.Echoed = append(res.Echoed, append([]byte(nil), d.Payload...))
	})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(seed))
	var sent [][]byte
	for i := 0; i < 60; i++ {
		payload := make([]byte, 1+rng.Intn(3000))
		rng.Read(payload)
		sent = append(sent, payload)
		if err := sock.SendTo(chAddr, 7, payload); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			mh.ICMP().Ping(chAddr, mhAddr, 1+rng.Intn(1500), time.Second, func(r stack.PingResult) { res.Pings = append(res.Pings, r) })
		}
		loop.RunFor(time.Duration(1+rng.Intn(20)) * time.Millisecond)
	}
	loop.RunFor(time.Minute)

	if len(res.Echoed) != len(sent) {
		t.Fatalf("%d of %d datagrams came back", len(res.Echoed), len(sent))
	}
	for i := range sent {
		if !bytes.Equal(res.Echoed[i], sent[i]) {
			t.Fatalf("datagram %d came back changed (%d bytes, sent %d)", i, len(res.Echoed[i]), len(sent[i]))
		}
	}
	res.Hosts, res.Reasm = map[string]stack.Stats{}, map[string]ip.ReassemblerStats{}
	for name, h := range hosts {
		res.Hosts[name], res.Reasm[name] = h.Stats(), h.Reassembler().Stats()
	}
	res.Tunnels, res.Transport = map[string]tunnel.Stats{}, map[string]transport.Stats{}
	for name, e := range tunnels {
		res.Tunnels[name] = e.Stats()
	}
	for name, s := range stacks {
		res.Transport[name] = s.StatsSnapshot()
	}
	res.Executed, res.End = loop.Executed(), loop.Now()
	if res.Tunnels["mh"].Encapsulated == 0 || res.Tunnels["ha"].Decapsulated == 0 ||
		res.Hosts["mh"].FragmentsSent == 0 || res.Hosts["router"].FragmentsSent == 0 ||
		res.Reasm["ha"].Reassembled == 0 || res.Reasm["mh"].Reassembled == 0 || res.Hosts["ha"].Forwarded == 0 || len(res.Pings) == 0 {
		t.Fatalf("the exchange did not cover tunnel, fragments, reassembly and forwarding: %+v", res)
	}
	return res, ip.PoolFor(loop).Ledger().Taken
}

// TestPooledMatchesPlain is the packet pool's reference-implementation
// oracle, in the style of link's TestFastPathMatchesWalk: the same seeded
// exchange run with packets pooled and with every constructor forced to
// plain, garbage-collected literals delivers byte-identical payloads,
// identical counters at every layer and the same number of events.
func TestPooledMatchesPlain(t *testing.T) {
	for _, seed := range []int64{1, 1996, 2026} {
		pooled, pooledMade := runExchange(t, seed)
		restore := ip.SetPlainPackets()
		plain, plainMade := runExchange(t, seed)
		restore()

		if pooledMade < 1000 || plainMade != 0 {
			t.Fatalf("seed %d: the pooled run made %d pooled packets and the plain run %d; want thousands and none", seed, pooledMade, plainMade)
		}
		if !reflect.DeepEqual(pooled, plain) {
			t.Errorf("seed %d: pooled and plain runs differ:\npooled %+v\n plain %+v", seed, summary(pooled), summary(plain))
		}
	}
}

// summary is an exchange without its payloads, for a readable failure.
func summary(e exchange) exchange {
	e.Echoed = nil
	return e
}
