package mosquitonet

import (
	"fmt"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/metrics"
	"mosquitonet/internal/mip"
	"mosquitonet/internal/scenario"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/stack"
	"mosquitonet/internal/trace"
	"mosquitonet/internal/transport"
)

// World is a convenience builder for custom internetworks: subnets hang
// off one backbone router, hosts get static addresses and default routes,
// and the mobile-IP entities attach with one call each. The paper's own
// environment is available pre-built as NewTestbed; World is for the
// examples and for downstream users assembling their own scenarios.
type World struct {
	// Loop drives the simulation; Tracer records protocol events.
	Loop   *Loop
	Tracer *Tracer

	// Metrics is the world's telemetry registry and Packets its
	// packet-lifecycle log; both are enabled before the router is built so
	// every layer registers its counters.
	Metrics *MetricsRegistry
	Packets *PacketLog

	// Router is the backbone router joining all subnets.
	Router *Host

	subnets map[string]*Subnet
	hostSeq int
}

// Subnet is one broadcast domain attached to the world's router.
type Subnet struct {
	Name   string
	Net    *Network
	Prefix IPPrefix
	// Gateway is the router's address on this subnet (host #1).
	Gateway Addr

	world *World
	// holders names who has each host number given out, #1 included.
	holders map[int]string
}

// EndHost is an ordinary (fixed) host with transport attached.
type EndHost struct {
	Host  *Host
	TS    *Transport
	Iface *Iface
	Addr  Addr
}

// MobileNode is a mobile host with its transport and managed interfaces.
type MobileNode struct {
	MH *MobileHost
	TS *Transport
}

// NewWorld creates an empty world with a backbone router.
func NewWorld(seed int64) *World {
	loop := sim.New(seed)
	w := &World{
		Loop:    loop,
		Tracer:  trace.New(loop),
		Metrics: metrics.Enable(loop),
		Packets: metrics.TracePackets(loop, 0),
		subnets: make(map[string]*Subnet),
	}
	w.Router = stack.NewHost(loop, "router", stack.Config{})
	w.Router.SetForwarding(true)
	return w
}

// Run advances the simulation by d of virtual time.
func (w *World) Run(d time.Duration) { w.Loop.RunFor(d) }

// AddSubnet creates a broadcast domain over medium m, reachable through
// the router, whose address on it is the subnet's first host address.
func (w *World) AddSubnet(name, cidr string, m Medium) (*Subnet, error) {
	pfx, err := ip.ParsePrefix(cidr)
	if err != nil {
		return nil, err
	}
	if _, dup := w.subnets[name]; dup {
		return nil, fmt.Errorf("mosquitonet: subnet %q already exists", name)
	}
	gw, err := pfx.Nth(1)
	if err != nil {
		return nil, err
	}
	n := link.NewNetwork(w.Loop, name, m)
	// Radio and serial media run Starmode-style without ARP.
	p2p := m.Name == "radio" || m.Name == "serial"
	scenario.AddRouterIface(w.Router, n, gw, pfx, stack.IfaceOpts{PointToPoint: p2p})
	sn := &Subnet{Name: name, Net: n, Prefix: pfx, Gateway: gw, world: w, holders: map[int]string{1: "router"}}
	w.subnets[name] = sn
	w.Loop.RunFor(0)
	return sn, nil
}

// claim gives the subnet's n-th host address to holder, unless another
// holder has it already.
func (sn *Subnet) claim(n int, holder string) (Addr, error) {
	addr, err := sn.Prefix.Nth(n)
	if err != nil {
		return Addr{}, err
	}
	if had, taken := sn.holders[n]; taken {
		return Addr{}, fmt.Errorf("mosquitonet: %s host #%d (%v) is already %s's, not free for %s", sn.Name, n, addr, had, holder)
	}
	sn.holders[n] = holder
	return addr, nil
}

// Host adds an ordinary host at the subnet's n-th host address, which no
// one else may have: #1 is the router's.
func (sn *Subnet) Host(name string, n int) (*EndHost, error) {
	addr, err := sn.claim(n, name)
	if err != nil {
		return nil, err
	}
	h := stack.NewHost(sn.world.Loop, name, stack.Config{})
	ts, ifc := scenario.AttachEndHost(h, sn.Net, name+"-eth", addr, sn.Prefix, sn.Gateway, stack.IfaceOpts{})
	return &EndHost{Host: h, TS: ts, Iface: ifc, Addr: addr}, nil
}

// DHCP starts a DHCP server on the subnet, on a dedicated machine at host
// #firstHost-1, leasing host addresses [firstHost, lastHost].
func (sn *Subnet) DHCP(firstHost, lastHost int) (*DHCPServer, error) {
	srvHost, err := sn.Host("dhcp-"+sn.Name, firstHost-1)
	if err != nil {
		return nil, err
	}
	return NewDHCPServer(srvHost.TS, DHCPServerConfig{
		Pool:      sn.Prefix,
		FirstHost: firstHost,
		LastHost:  lastHost,
		Gateway:   sn.Gateway,
	})
}

// HomeAgent starts a home agent for this subnet on a dedicated host at the
// n-th host address.
func (sn *Subnet) HomeAgent(n int) (*HomeAgent, error) {
	haHost, err := sn.Host("ha-"+sn.Name, n)
	if err != nil {
		return nil, err
	}
	return mip.NewHomeAgent(haHost.TS, mip.HomeAgentConfig{
		HomeIface:  haHost.Iface,
		HomePrefix: sn.Prefix,
		Tracer:     sn.world.Tracer,
	})
}

// ForeignAgent starts a foreign agent on this subnet at the n-th host
// address.
func (sn *Subnet) ForeignAgent(n int) (*ForeignAgent, error) {
	faHost, err := sn.Host("fa-"+sn.Name, n)
	if err != nil {
		return nil, err
	}
	return mip.NewForeignAgent(faHost.TS, mip.ForeignAgentConfig{
		Iface:  faHost.Iface,
		Tracer: sn.world.Tracer,
	})
}

// MobileHost creates a mobile host whose permanent address is the home
// subnet's n-th host address and whose home agent is at agent.
func (w *World) MobileHost(name string, home *Subnet, n int, agent Addr) (*MobileNode, error) {
	homeAddr, err := home.claim(n, name)
	if err != nil {
		return nil, err
	}
	h := stack.NewHost(w.Loop, name, stack.Config{})
	ts := transport.NewStack(h)
	m := mip.NewMobileHost(ts, mip.MobileHostConfig{
		HomeAddr:   homeAddr,
		HomePrefix: home.Prefix,
		HomeAgent:  agent,
		Tracer:     w.Tracer,
	})
	return &MobileNode{MH: m, TS: ts}, nil
}

// WiredInterface adds a managed Ethernet-style interface to the mobile
// host, attached to sn (DHCP-configured on foreign subnets).
func (mn *MobileNode) WiredInterface(name string, sn *Subnet) (*ManagedIface, error) {
	d := link.NewDevice(mn.MH.Host().Loop(), name, 0, 0)
	d.Attach(sn.Net)
	return mn.MH.AddInterface(name, d, false, nil)
}

// StaticInterface adds a managed interface with a fixed foreign
// configuration at sn's n-th host address (radio-style subnets).
func (mn *MobileNode) StaticInterface(name string, sn *Subnet, n int, pointToPoint bool) (*ManagedIface, error) {
	addr, err := sn.claim(n, mn.MH.Host().Name()+" "+name)
	if err != nil {
		return nil, err
	}
	d := link.NewDevice(mn.MH.Host().Loop(), name, 0, 0)
	d.Attach(sn.Net)
	return mn.MH.AddInterface(name, d, pointToPoint, &mip.StaticConfig{
		Addr:    addr,
		Prefix:  sn.Prefix,
		Gateway: sn.Gateway,
	})
}

// MoveInterface reattaches a managed interface's device to another subnet
// (carrying the machine somewhere else). Reconnect with ColdSwitch or
// ConnectForeign afterwards.
func (mn *MobileNode) MoveInterface(mi *ManagedIface, to *Subnet) {
	mi.Iface().Device().Detach()
	mi.Iface().Device().Attach(to.Net)
}
