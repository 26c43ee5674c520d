package scenario

import (
	"fmt"
	"sort"
	"time"

	"mosquitonet/internal/dhcp"
	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/metrics"
	"mosquitonet/internal/mip"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/stack"
	"mosquitonet/internal/trace"
	"mosquitonet/internal/transport"
)

// World is a compiled scenario: the simulation loop plus every named
// entity the spec declared, keyed for lookup by the itinerary runner, the
// fault injector, and the admin console. The maps are lookup-only — all
// iteration happens over the spec's ordered slices (or sorted keys), so a
// compiled world stays deterministic.
type World struct {
	Spec    *Spec
	Loop    *sim.Loop
	Tracer  *trace.Tracer
	Metrics *metrics.Registry
	Packets *metrics.PacketLog

	Networks map[string]*link.Network // by subnet name
	Prefixes map[string]ip.Prefix     // by subnet name
	Devices  map[string]*link.Device  // by device name
	Routers  map[string]*stack.Host   // by router name
	RouterTS map[string]*transport.Stack
	HAs      map[string]*mip.HomeAgent // by router name
	DHCPs    map[string]*dhcp.Server   // by router name
	Stacks   map[string]*transport.Stack
	Mobiles  map[string]*mip.MobileHost
	MIfaces  map[string]*mip.ManagedIface // by "mobile/iface"

	// hosts maps every host name (router, end host, mobile) to its
	// stack.Host, for the admin console's route commands.
	hosts map[string]*stack.Host

	Faults *Injector
}

// Compile lowers a resolved, validated spec onto the simulator builders.
// The lowering walks the spec strictly in order — subnets, then routers
// (interfaces, forwarding, home agent, DHCP), then end hosts, then
// mobiles, then a zero-length run to let bring-ups land — because
// construction order is RNG-consumption order and therefore behavior.
// Fleet specs do not compile here; their sharded lowering lives in the
// testbed package.
func Compile(seed int64, spec *Spec) (*World, error) {
	if spec.Base != "" {
		return nil, fmt.Errorf("scenario %q: unresolved base %q (call ResolveBase)", spec.Name, spec.Base)
	}
	if err := Validate(spec); err != nil {
		return nil, err
	}
	if spec.Topology.Fleet != nil {
		return nil, fmt.Errorf("scenario %q: fleet specs are lowered by the testbed's sharded builder, not Compile", spec.Name)
	}

	loop := sim.New(seed)
	w := &World{
		Spec:     spec,
		Loop:     loop,
		Tracer:   trace.New(loop),
		Metrics:  metrics.Enable(loop),
		Packets:  metrics.TracePackets(loop, 0),
		Networks: map[string]*link.Network{},
		Prefixes: map[string]ip.Prefix{},
		Devices:  map[string]*link.Device{},
		Routers:  map[string]*stack.Host{},
		RouterTS: map[string]*transport.Stack{},
		HAs:      map[string]*mip.HomeAgent{},
		DHCPs:    map[string]*dhcp.Server{},
		Stacks:   map[string]*transport.Stack{},
		Mobiles:  map[string]*mip.MobileHost{},
		MIfaces:  map[string]*mip.ManagedIface{},
		hosts:    map[string]*stack.Host{},
	}

	for i := range spec.Topology.Subnets {
		s := &spec.Topology.Subnets[i]
		w.Networks[s.Name] = link.NewNetwork(loop, s.NetworkName(), medium(s.Medium))
		w.Prefixes[s.Name] = ip.MustParsePrefix(s.Prefix)
	}
	for i := range spec.Topology.Routers {
		if err := w.compileRouter(&spec.Topology.Routers[i]); err != nil {
			return nil, err
		}
	}
	for i := range spec.Topology.Hosts {
		w.compileEndHost(&spec.Topology.Hosts[i])
	}
	for i := range spec.Topology.Mobiles {
		if err := w.compileMobile(&spec.Topology.Mobiles[i]); err != nil {
			return nil, err
		}
	}
	loop.RunFor(0)

	w.Faults = newInjector(w)
	for i := range spec.Faults {
		if err := w.Faults.Schedule(spec.Faults[i]); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// medium lowers a medium spec to the link layer's calibrated media.
func medium(m Medium) link.Medium {
	switch m.Kind {
	case "ethernet":
		return link.Ethernet()
	case "radio":
		return link.Radio()
	case "serial":
		return link.Serial()
	case "backbone":
		return link.Backbone()
	default: // "custom"; Validate rejects anything else
		return link.Medium{
			Name:          m.Name,
			Latency:       m.Latency.D(),
			LatencyJitter: m.LatencyJitter.D(),
			BitRate:       m.BitRate,
			LossProb:      m.LossProb,
			MTU:           m.MTU,
		}
	}
}

func (w *World) compileRouter(r *Router) error {
	h := stack.NewHost(w.Loop, r.Name, stack.Config{
		InputDelay:   r.Delays.Input.D(),
		OutputDelay:  r.Delays.Output.D(),
		ForwardDelay: r.Delays.Forward.D(),
	})
	ifaces := map[string]*stack.Iface{}
	for i := range r.Ifaces {
		ri := &r.Ifaces[i]
		sub := w.subnetSpec(ri.Subnet)
		ifc := AddRouterIface(h, w.Networks[ri.Subnet], ip.MustParseAddr(ri.Addr), w.Prefixes[ri.Subnet],
			stack.IfaceOpts{PointToPoint: sub.PointToPoint})
		w.Devices[ifc.Device().Name()] = ifc.Device()
		ifaces[ri.Subnet] = ifc
	}
	h.SetForwarding(true)
	ts := transport.NewStack(h)
	w.Routers[r.Name] = h
	w.RouterTS[r.Name] = ts
	w.hosts[r.Name] = h

	if has := r.HomeAgent; has != nil {
		ha, err := mip.NewHomeAgent(ts, mip.HomeAgentConfig{
			HomeIface:       ifaces[has.Subnet],
			HomePrefix:      w.Prefixes[has.Subnet],
			ProcessingDelay: has.Processing.D(),
			Tracer:          w.Tracer,
		})
		if err != nil {
			return fmt.Errorf("scenario %q: router %q: home agent: %w", w.Spec.Name, r.Name, err)
		}
		w.HAs[r.Name] = ha
	}
	if ds := r.DHCP; ds != nil {
		srv, err := dhcp.NewServer(ts, dhcp.ServerConfig{
			Pool:            w.Prefixes[ds.Subnet],
			FirstHost:       ds.FirstHost,
			LastHost:        ds.LastHost,
			Gateway:         ip.MustParseAddr(r.ifaceOn(ds.Subnet).Addr),
			ProcessingDelay: ds.Processing.D(),
		})
		if err != nil {
			return fmt.Errorf("scenario %q: router %q: dhcp: %w", w.Spec.Name, r.Name, err)
		}
		w.DHCPs[r.Name] = srv
	}
	return nil
}

func (w *World) compileEndHost(eh *EndHost) {
	h := stack.NewHost(w.Loop, eh.Name, stack.Config{
		InputDelay:  eh.Delay.D(),
		OutputDelay: eh.Delay.D(),
	})
	ts, ifc := AttachEndHost(h, w.Networks[eh.Subnet], eh.Name+"-eth",
		ip.MustParseAddr(eh.Addr), w.Prefixes[eh.Subnet], ip.MustParseAddr(eh.Gateway),
		stack.IfaceOpts{PointToPoint: w.subnetSpec(eh.Subnet).PointToPoint})
	w.Devices[ifc.Device().Name()] = ifc.Device()
	w.Stacks[eh.Name] = ts
	w.hosts[eh.Name] = h
}

// AddRouterIface is the one router-interface construction sequence: an
// always-ready device named after the network, attached and up, added to
// h at addr with its connected route. Every world builder calls it, so
// MAC assignment and RNG consumption cannot drift between them.
func AddRouterIface(h *stack.Host, n *link.Network, addr ip.Addr, pfx ip.Prefix, opts stack.IfaceOpts) *stack.Iface {
	d := link.NewDevice(h.Loop(), "r-"+n.Name(), 0, 0)
	d.Attach(n)
	d.BringUp(nil)
	ifc := h.AddIface("r-"+n.Name(), d, addr, pfx, opts)
	h.ConnectRoute(ifc)
	return ifc
}

// AttachEndHost is the one end-host construction sequence, applied to a
// freshly made host: an always-ready device attached and up, interface
// eth0 at addr, connected and default routes, a zero-length run for the
// bring-up to land, then the transport. Like AddRouterIface, every world
// builder calls it so the order cannot drift.
func AttachEndHost(h *stack.Host, n *link.Network, dev string, addr ip.Addr, pfx ip.Prefix, gw ip.Addr, opts stack.IfaceOpts) (*transport.Stack, *stack.Iface) {
	d := link.NewDevice(h.Loop(), dev, 0, 0)
	d.Attach(n)
	d.BringUp(nil)
	ifc := h.AddIface("eth0", d, addr, pfx, opts)
	h.ConnectRoute(ifc)
	h.AddDefaultRoute(gw, ifc)
	h.Loop().RunFor(0)
	return transport.NewStack(h), ifc
}

func (w *World) compileMobile(m *Mobile) error {
	h := stack.NewHost(w.Loop, m.Name, stack.Config{
		InputDelay:  m.Delay.D(),
		OutputDelay: m.Delay.D(),
	})
	ts := transport.NewStack(h)
	mh := mip.NewMobileHost(ts, mip.MobileHostConfig{
		HomeAddr:         ip.MustParseAddr(m.HomeAddr),
		HomePrefix:       w.Prefixes[m.HomeSubnet],
		HomeAgent:        ip.MustParseAddr(m.HomeAgent),
		Lifetime:         m.Lifetime.D(),
		ConfigureDelay:   m.ConfigureDelay.D(),
		RouteChangeDelay: m.RouteChangeDelay.D(),
		Tracer:           w.Tracer,
	})
	for i := range m.Ifaces {
		ic := &m.Ifaces[i]
		sub := w.subnetSpec(ic.Attach)
		d := link.NewDevice(w.Loop, ic.Device, ic.BringUp.D(), ic.BringUpJitter.D())
		d.Attach(w.Networks[ic.Attach])
		var static *mip.StaticConfig
		if ic.Static != nil {
			static = &mip.StaticConfig{
				Addr:    ip.MustParseAddr(ic.Static.Addr),
				Prefix:  w.Prefixes[ic.Attach],
				Gateway: ip.MustParseAddr(ic.Static.Gateway),
			}
		}
		mi, err := mh.AddInterface(ic.Name, d, sub.PointToPoint, static)
		if err != nil {
			return fmt.Errorf("scenario %q: mobile %q: iface %q: %w", w.Spec.Name, m.Name, ic.Name, err)
		}
		w.Devices[ic.Device] = d
		w.MIfaces[m.Name+"/"+ic.Name] = mi
	}
	w.Stacks[m.Name] = ts
	w.Mobiles[m.Name] = mh
	w.hosts[m.Name] = h
	return nil
}

// subnetSpec returns the subnet spec by name; Compile runs only on
// validated specs, so the name resolves.
func (w *World) subnetSpec(name string) *Subnet {
	for i := range w.Spec.Topology.Subnets {
		if w.Spec.Topology.Subnets[i].Name == name {
			return &w.Spec.Topology.Subnets[i]
		}
	}
	return nil
}

// Host returns any named host's stack.Host (router, end host, or mobile).
func (w *World) Host(name string) (*stack.Host, bool) {
	h, ok := w.hosts[name]
	return h, ok
}

// HostNames returns every host name, sorted.
func (w *World) HostNames() []string {
	names := make([]string, 0, len(w.hosts))
	for n := range w.hosts {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RunFor advances the simulation.
func (w *World) RunFor(d time.Duration) { w.Loop.RunFor(d) }

// Close detaches the world's telemetry from its loop. Nothing needs it — a
// dropped world is collected whole — and nothing in this module calls it;
// it stays because the benchmark module (perf/) compiles against it.
func (w *World) Close() {
	metrics.Release(w.Loop)
	trace.Release(w.Loop)
}
