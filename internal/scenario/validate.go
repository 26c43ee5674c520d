package scenario

import (
	"fmt"
	"math"
	"slices"
	"time"

	"mosquitonet/internal/app"
	"mosquitonet/internal/ip"
)

// Validate checks a spec for internal consistency: schema version, unique
// names, parseable addresses inside their subnet prefixes, and that every
// cross-reference (subnets, hosts, devices, clients, routers) resolves.
// Errors are reported in spec order — first failing field wins — so the
// same spec always yields the same error text.
func Validate(spec *Spec) error {
	if spec.Version != SchemaVersion {
		return fmt.Errorf("scenario: version %d not supported (want %d)", spec.Version, SchemaVersion)
	}
	if spec.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if spec.Base != "" {
		if !spec.Topology.IsZero() {
			return fmt.Errorf("scenario %q: base %q set but topology is not empty", spec.Name, spec.Base)
		}
		// Topology-dependent checks run after ResolveBase.
		return nil
	}
	v := &validator{spec: spec}
	return v.run()
}

// validator carries the resolved name sets built up while walking the
// spec in order.
type validator struct {
	spec     *Spec
	subnets  map[string]ip.Prefix
	devices  map[string]bool
	routers  map[string]bool
	hosts    map[string]bool // every addressable host: routers, end hosts, mobiles
	mobiles  map[string]*Mobile
	clients  map[string]bool // MQTT client names
	haAddrs  map[string]bool // addresses hosting a home agent
	dhcpNets map[string]bool // subnets served by DHCP
}

func (v *validator) run() error {
	t := &v.spec.Topology
	if t.IsZero() {
		return fmt.Errorf("scenario %q: empty topology (set topology or base)", v.spec.Name)
	}
	if t.Fleet != nil {
		if len(t.Subnets) > 0 || len(t.Routers) > 0 || len(t.Hosts) > 0 || len(t.Mobiles) > 0 {
			return fmt.Errorf("scenario %q: fleet topology must not also declare subnets/routers/hosts/mobiles", v.spec.Name)
		}
		if err := v.fleet(t.Fleet); err != nil {
			return err
		}
		if v.spec.Traffic != nil || len(v.spec.Itinerary) > 0 || len(v.spec.Faults) > 0 {
			return fmt.Errorf("scenario %q: fleet scenarios take no traffic/itinerary/faults (the fleet schedule is self-contained)", v.spec.Name)
		}
		return nil
	}
	v.subnets = map[string]ip.Prefix{}
	v.devices = map[string]bool{}
	v.routers = map[string]bool{}
	v.hosts = map[string]bool{}
	v.mobiles = map[string]*Mobile{}
	v.clients = map[string]bool{}
	v.haAddrs = map[string]bool{}
	v.dhcpNets = map[string]bool{}
	for i := range t.Subnets {
		if err := v.subnet(&t.Subnets[i]); err != nil {
			return err
		}
	}
	if len(t.Subnets) == 0 {
		return fmt.Errorf("scenario %q: no subnets", v.spec.Name)
	}
	for i := range t.Routers {
		if err := v.router(&t.Routers[i]); err != nil {
			return err
		}
	}
	for i := range t.Hosts {
		if err := v.endHost(&t.Hosts[i]); err != nil {
			return err
		}
	}
	for i := range t.Mobiles {
		if err := v.mobile(&t.Mobiles[i]); err != nil {
			return err
		}
	}
	if err := v.pools(); err != nil {
		return err
	}
	if v.spec.Traffic != nil {
		if err := v.traffic(v.spec.Traffic); err != nil {
			return err
		}
	}
	for i := range v.spec.Itinerary {
		if err := v.step(i, &v.spec.Itinerary[i]); err != nil {
			return err
		}
	}
	for i := range v.spec.Faults {
		if err := v.fault(i, &v.spec.Faults[i]); err != nil {
			return err
		}
	}
	return nil
}

func (v *validator) subnet(s *Subnet) error {
	ctx := fmt.Sprintf("scenario %q: subnet %q", v.spec.Name, s.Name)
	if s.Name == "" {
		return fmt.Errorf("scenario %q: subnet with empty name", v.spec.Name)
	}
	if _, dup := v.subnets[s.Name]; dup {
		return fmt.Errorf("%s: duplicate name", ctx)
	}
	pfx, err := ip.ParsePrefix(s.Prefix)
	if err != nil {
		return fmt.Errorf("%s: %w", ctx, err)
	}
	if !slices.Contains(MediumKinds, s.Medium.Kind) {
		return fmt.Errorf("%s: unknown medium kind %q (want one of %v)", ctx, s.Medium.Kind, MediumKinds)
	}
	if s.Medium.Kind == "custom" {
		m := s.Medium
		if m.BitRate <= 0 || m.MTU <= 0 {
			return fmt.Errorf("%s: custom medium needs positive bit_rate and mtu", ctx)
		}
		if m.LossProb < 0 || m.LossProb >= 1 {
			return fmt.Errorf("%s: loss_prob %v out of range [0,1)", ctx, m.LossProb)
		}
		if m.Latency < 0 || m.LatencyJitter < 0 {
			return fmt.Errorf("%s: negative latency", ctx)
		}
	} else if s.Medium.Name != "" || s.Medium.BitRate != 0 || s.Medium.MTU != 0 ||
		s.Medium.Latency != 0 || s.Medium.LatencyJitter != 0 || s.Medium.LossProb != 0 {
		return fmt.Errorf("%s: medium parameters are only valid with kind \"custom\"", ctx)
	}
	v.subnets[s.Name] = pfx
	return nil
}

// addrIn parses addr and requires it to fall inside the named subnet.
func (v *validator) addrIn(ctx, addr, subnet string) error {
	a, err := ip.ParseAddr(addr)
	if err != nil {
		return fmt.Errorf("%s: %w", ctx, err)
	}
	if pfx, ok := v.subnets[subnet]; ok && !pfx.Contains(a) {
		return fmt.Errorf("%s: address %s not in subnet %q (%s)", ctx, addr, subnet, pfx)
	}
	return nil
}

func (v *validator) hostName(ctx, name string) error {
	if name == "" {
		return fmt.Errorf("%s: empty host name", ctx)
	}
	if v.hosts[name] {
		return fmt.Errorf("%s: duplicate host name %q", ctx, name)
	}
	v.hosts[name] = true
	return nil
}

func (v *validator) deviceName(ctx, name string) error {
	if v.devices[name] {
		return fmt.Errorf("%s: duplicate device name %q", ctx, name)
	}
	v.devices[name] = true
	return nil
}

func (v *validator) router(r *Router) error {
	ctx := fmt.Sprintf("scenario %q: router %q", v.spec.Name, r.Name)
	if err := v.hostName(ctx, r.Name); err != nil {
		return err
	}
	v.routers[r.Name] = true
	if err := delays(ctx, "delays", r.Delays); err != nil {
		return err
	}
	if len(r.Ifaces) == 0 {
		return fmt.Errorf("%s: no ifaces", ctx)
	}
	seen := map[string]bool{}
	for i := range r.Ifaces {
		ifc := &r.Ifaces[i]
		if _, ok := v.subnets[ifc.Subnet]; !ok {
			return fmt.Errorf("%s: iface %d: unknown subnet %q", ctx, i, ifc.Subnet)
		}
		if seen[ifc.Subnet] {
			return fmt.Errorf("%s: duplicate iface on subnet %q", ctx, ifc.Subnet)
		}
		seen[ifc.Subnet] = true
		if err := v.addrIn(ctx, ifc.Addr, ifc.Subnet); err != nil {
			return err
		}
		if err := v.deviceName(ctx, routerDeviceName(v.subnetByName(ifc.Subnet))); err != nil {
			return err
		}
	}
	if ha := r.HomeAgent; ha != nil {
		ifc := r.ifaceOn(ha.Subnet)
		if ifc == nil {
			return fmt.Errorf("%s: home_agent subnet %q has no router iface", ctx, ha.Subnet)
		}
		if err := nonNegative(ctx, field{"home_agent processing", ha.Processing}); err != nil {
			return err
		}
		v.haAddrs[ifc.Addr] = true
	}
	if d := r.DHCP; d != nil {
		ifc := r.ifaceOn(d.Subnet)
		if ifc == nil {
			return fmt.Errorf("%s: dhcp subnet %q has no router iface", ctx, d.Subnet)
		}
		pfx := v.subnets[d.Subnet]
		if d.FirstHost < 1 || d.LastHost < d.FirstHost || d.LastHost > pfx.HostCount() {
			return fmt.Errorf("%s: dhcp host range [%d,%d] invalid for %s", ctx, d.FirstHost, d.LastHost, pfx)
		}
		if err := nonNegative(ctx, field{"dhcp processing", d.Processing}); err != nil {
			return err
		}
		v.dhcpNets[d.Subnet] = true
	}
	return nil
}

// pools refuses a DHCP pool that covers an address the spec gives someone
// else on the pool's subnet — an end host, a mobile's home or static
// address — since the server would lease it to a roaming mobile. Routers
// are not parties: a subnet has one router interface (router device names
// are per subnet), the serving router's own, which the server skips. Pools
// are checked in spec order, and each against the parties in spec order.
func (v *validator) pools() error {
	t := &v.spec.Topology
	type party struct{ who, addr, subnet string }
	var parties []party
	for _, h := range t.Hosts {
		parties = append(parties, party{fmt.Sprintf("host %q's address", h.Name), h.Addr, h.Subnet})
	}
	for _, m := range t.Mobiles {
		parties = append(parties, party{fmt.Sprintf("mobile %q's home address", m.Name), m.HomeAddr, m.HomeSubnet})
		for _, ifc := range m.Ifaces {
			if ifc.Static != nil {
				parties = append(parties, party{fmt.Sprintf("mobile %q's static address on %q", m.Name, ifc.Name), ifc.Static.Addr, ifc.Attach})
			}
		}
	}
	for _, r := range t.Routers {
		d := r.DHCP
		if d == nil {
			continue
		}
		pfx := v.subnets[d.Subnet]
		first, _ := pfx.Nth(d.FirstHost)
		last, _ := pfx.Nth(d.LastHost)
		for _, p := range parties {
			if a := ip.MustParseAddr(p.addr); p.subnet == d.Subnet && !a.Less(first) && !last.Less(a) {
				return fmt.Errorf("scenario %q: router %q: dhcp pool %v-%v would lease %s, %s",
					v.spec.Name, r.Name, first, last, p.addr, p.who)
			}
		}
	}
	return nil
}

// ifaceOn returns the router iface on the named subnet, if any.
func (r *Router) ifaceOn(subnet string) *RouterIface {
	for i := range r.Ifaces {
		if r.Ifaces[i].Subnet == subnet {
			return &r.Ifaces[i]
		}
	}
	return nil
}

// subnetByName returns the subnet spec by name (nil if absent).
func (v *validator) subnetByName(name string) *Subnet {
	for i := range v.spec.Topology.Subnets {
		if v.spec.Topology.Subnets[i].Name == name {
			return &v.spec.Topology.Subnets[i]
		}
	}
	return nil
}

func (v *validator) endHost(h *EndHost) error {
	ctx := fmt.Sprintf("scenario %q: host %q", v.spec.Name, h.Name)
	if err := v.hostName(ctx, h.Name); err != nil {
		return err
	}
	if _, ok := v.subnets[h.Subnet]; !ok {
		return fmt.Errorf("%s: unknown subnet %q", ctx, h.Subnet)
	}
	if err := v.addrIn(ctx, h.Addr, h.Subnet); err != nil {
		return err
	}
	if err := v.addrIn(ctx+" gateway", h.Gateway, h.Subnet); err != nil {
		return err
	}
	if err := nonNegative(ctx, field{"delay", h.Delay}); err != nil {
		return err
	}
	return v.deviceName(ctx, h.Name+"-eth")
}

func (v *validator) mobile(m *Mobile) error {
	ctx := fmt.Sprintf("scenario %q: mobile %q", v.spec.Name, m.Name)
	if err := v.hostName(ctx, m.Name); err != nil {
		return err
	}
	if _, ok := v.subnets[m.HomeSubnet]; !ok {
		return fmt.Errorf("%s: unknown home_subnet %q", ctx, m.HomeSubnet)
	}
	if err := v.addrIn(ctx, m.HomeAddr, m.HomeSubnet); err != nil {
		return err
	}
	if err := v.addrIn(ctx+" home_agent", m.HomeAgent, m.HomeSubnet); err != nil {
		return err
	}
	if !v.haAddrs[m.HomeAgent] {
		return fmt.Errorf("%s: no home agent at %s", ctx, m.HomeAgent)
	}
	if err := regLifetime(ctx, "lifetime", m.Lifetime); err != nil {
		return err
	}
	if err := nonNegative(ctx, field{"configure_delay", m.ConfigureDelay},
		field{"route_change_delay", m.RouteChangeDelay}, field{"delay", m.Delay}); err != nil {
		return err
	}
	if len(m.Ifaces) == 0 {
		return fmt.Errorf("%s: no ifaces", ctx)
	}
	seen := map[string]bool{}
	for i := range m.Ifaces {
		ifc := &m.Ifaces[i]
		ictx := fmt.Sprintf("%s: iface %q", ctx, ifc.Name)
		if ifc.Name == "" || ifc.Device == "" {
			return fmt.Errorf("%s: iface %d needs name and device", ctx, i)
		}
		if seen[ifc.Name] {
			return fmt.Errorf("%s: duplicate iface %q", ctx, ifc.Name)
		}
		seen[ifc.Name] = true
		if err := v.deviceName(ictx, ifc.Device); err != nil {
			return err
		}
		if _, ok := v.subnets[ifc.Attach]; !ok {
			return fmt.Errorf("%s: unknown attach subnet %q", ictx, ifc.Attach)
		}
		if err := nonNegative(ictx, field{"bring_up", ifc.BringUp}, field{"bring_up_jitter", ifc.BringUpJitter}); err != nil {
			return err
		}
		if st := ifc.Static; st != nil {
			if err := v.addrIn(ictx, st.Addr, ifc.Attach); err != nil {
				return err
			}
			if err := v.addrIn(ictx+" gateway", st.Gateway, ifc.Attach); err != nil {
				return err
			}
		}
	}
	v.mobiles[m.Name] = m
	return nil
}

func (v *validator) fleet(f *Fleet) error {
	ctx := fmt.Sprintf("scenario %q: fleet", v.spec.Name)
	if len(f.Tiers) == 0 {
		return fmt.Errorf("%s: no tiers", ctx)
	}
	for _, n := range f.Tiers {
		if n < 1 || n > 1_000_000 {
			return fmt.Errorf("%s: tier %d out of range [1,1000000] hosts", ctx, n)
		}
	}
	if f.Duration <= 0 || f.SwitchPeriod <= 0 || f.ProbeInterval <= 0 {
		return fmt.Errorf("%s: duration, switch_period and probe_interval must be positive", ctx)
	}
	if f.CrossEvery < 1 {
		return fmt.Errorf("%s: cross_every must be >= 1", ctx)
	}
	return nil
}

// field is a duration with the name the spec gives it, for error text.
type field struct {
	name string
	d    Duration
}

// nonNegative refuses the first of fs that is negative: the scheduler would
// silently run it as zero.
func nonNegative(ctx string, fs ...field) error {
	for _, f := range fs {
		if f.d < 0 {
			return fmt.Errorf("%s: negative %s %v", ctx, f.name, f.d)
		}
	}
	return nil
}

// delays refuses a negative per-packet cost.
func delays(ctx, name string, d Delays) error {
	return nonNegative(ctx, field{name + " input", d.Input}, field{name + " output", d.Output},
		field{name + " forward", d.Forward})
}

// regLifetime refuses a registration lifetime the request's 16-bit seconds
// field cannot carry exactly: a fraction of a second is truncated, 65,536 s
// wraps, and either can reach 0 s, which asks for a deregistration. Zero
// selects the mobile host's default.
func regLifetime(ctx, name string, d Duration) error {
	if d != 0 && (d < Duration(time.Second) || d > Duration(math.MaxUint16*time.Second) || d%Duration(time.Second) != 0) {
		return fmt.Errorf("%s: %s %v is not a whole number of seconds in [1s, 65535s]", ctx, name, d)
	}
	return nil
}

// trafficHost refuses a traffic endpoint the runner has no transport for:
// traffic runs on end hosts and mobiles, never on a router.
func (v *validator) trafficHost(ctx, name string) error {
	switch {
	case v.routers[name]:
		return fmt.Errorf("%s: host %q is a router (traffic runs on end hosts and mobiles)", ctx, name)
	case !v.hosts[name]:
		return fmt.Errorf("%s: unknown host %q", ctx, name)
	}
	return nil
}

func (v *validator) traffic(t *Traffic) error {
	for i := range t.Probes {
		p := &t.Probes[i]
		ctx := fmt.Sprintf("scenario %q: probe %q", v.spec.Name, p.Name)
		if p.Name == "" {
			return fmt.Errorf("scenario %q: probe %d: empty name", v.spec.Name, i)
		}
		if err := v.trafficHost(ctx, p.From); err != nil {
			return err
		}
		if err := v.trafficHost(ctx, p.To); err != nil {
			return err
		}
		if _, err := ip.ParseAddr(p.Dst); err != nil {
			return fmt.Errorf("%s: %w", ctx, err)
		}
		if p.Port < 1 || p.Port > 65535 {
			return fmt.Errorf("%s: port %d out of range", ctx, p.Port)
		}
		if p.Interval <= 0 {
			return fmt.Errorf("%s: interval must be positive", ctx)
		}
	}
	if m := t.MQTT; m != nil {
		ctx := fmt.Sprintf("scenario %q: mqtt", v.spec.Name)
		if err := v.trafficHost(ctx+" broker", m.Broker.Host); err != nil {
			return err
		}
		for i := range m.Clients {
			c := &m.Clients[i]
			if c.Name == "" {
				return fmt.Errorf("%s: client %d needs a name", ctx, i)
			}
			if err := v.trafficHost(fmt.Sprintf("%s: client %q", ctx, c.Name), c.Host); err != nil {
				return err
			}
			if v.clients[c.Name] {
				return fmt.Errorf("%s: duplicate client %q", ctx, c.Name)
			}
			v.clients[c.Name] = true
		}
		topics := map[string]int{}
		for i := range m.Pubs {
			p := &m.Pubs[i]
			pctx := fmt.Sprintf("%s: publication %q", ctx, p.Topic)
			if !app.ValidTopic(p.Topic) {
				// Client.Publish and Client.Subscribe refuse every wildcard.
				return fmt.Errorf("%s: publication %d: topic %q is empty or has a wildcard", ctx, i, p.Topic)
			}
			// Each publication's subscriber would receive the other's flow.
			if j, ok := topics[p.Topic]; ok {
				return fmt.Errorf("%s: publications %d and %d share topic %q", ctx, j, i, p.Topic)
			}
			topics[p.Topic] = i
			if !v.clients[p.From] {
				return fmt.Errorf("%s: unknown publisher %q", pctx, p.From)
			}
			if !v.clients[p.To] {
				return fmt.Errorf("%s: unknown subscriber %q", pctx, p.To)
			}
			if p.QoS < 0 || p.QoS > 1 {
				return fmt.Errorf("%s: qos %d out of range [0,1]", pctx, p.QoS)
			}
			if p.Interval <= 0 || p.Size < 1 {
				return fmt.Errorf("%s: interval and size must be positive", pctx)
			}
			if limit := app.MaxPublishPayload(p.Topic); p.Size > limit {
				return fmt.Errorf("%s: size %d is over the %d bytes a publish to this topic carries", pctx, p.Size, limit)
			}
		}
	}
	if h := t.HTTP; h != nil {
		ctx := fmt.Sprintf("scenario %q: http", v.spec.Name)
		if err := v.trafficHost(ctx+" server", h.Server.Host); err != nil {
			return err
		}
		seen := map[string]bool{}
		for i := range h.Flows {
			f := &h.Flows[i]
			fctx := fmt.Sprintf("%s: flow %q", ctx, f.Name)
			if f.Name == "" || f.Client == "" {
				return fmt.Errorf("%s: flow %d needs name and client", ctx, i)
			}
			if seen[f.Name] {
				return fmt.Errorf("%s: duplicate flow", fctx)
			}
			seen[f.Name] = true
			if err := v.trafficHost(fctx, f.Host); err != nil {
				return err
			}
			if f.Path == "" || f.Path[0] != '/' {
				return fmt.Errorf("%s: path must start with '/'", fctx)
			}
			if f.Interval <= 0 || f.Size < 1 {
				return fmt.Errorf("%s: interval and size must be positive", fctx)
			}
			if f.Size > app.MaxHTTPBody {
				return fmt.Errorf("%s: size %d is over the %d bytes a request body carries", fctx, f.Size, app.MaxHTTPBody)
			}
		}
	}
	if t.Drain < 0 {
		return fmt.Errorf("scenario %q: negative drain", v.spec.Name)
	}
	return nil
}

// stepMobile resolves a step's mobile: the named one, or the sole mobile.
func (v *validator) stepMobile(ctx string, st *Step) (*Mobile, error) {
	if st.Mobile != "" {
		m, ok := v.mobiles[st.Mobile]
		if !ok {
			return nil, fmt.Errorf("%s: unknown mobile %q", ctx, st.Mobile)
		}
		return m, nil
	}
	if len(v.spec.Topology.Mobiles) != 1 {
		return nil, fmt.Errorf("%s: mobile must be named when the topology has %d mobiles", ctx, len(v.spec.Topology.Mobiles))
	}
	return &v.spec.Topology.Mobiles[0], nil
}

func (v *validator) step(i int, st *Step) error {
	ctx := fmt.Sprintf("scenario %q: itinerary step %d (%s)", v.spec.Name, i, st.Op)
	if !slices.Contains(StepOps, st.Op) {
		return fmt.Errorf("scenario %q: itinerary step %d: unknown op %q (want one of %v)", v.spec.Name, i, st.Op, StepOps)
	}
	m, err := v.stepMobile(ctx, st)
	if err != nil {
		return err
	}
	ifaceOf := func() (*MobileIface, error) {
		for j := range m.Ifaces {
			if m.Ifaces[j].Name == st.Iface {
				return &m.Ifaces[j], nil
			}
		}
		return nil, fmt.Errorf("%s: mobile %q has no iface %q", ctx, m.Name, st.Iface)
	}
	switch st.Op {
	case "settle":
		if st.For <= 0 {
			return fmt.Errorf("%s: settle needs a positive \"for\"", ctx)
		}
	case "connect-home", "cold-switch-home":
		// Home attachment is implied by the mobile's home subnet.
	case "move":
		if _, err := ifaceOf(); err != nil {
			return err
		}
		if _, ok := v.subnets[st.To]; !ok {
			return fmt.Errorf("%s: unknown subnet %q", ctx, st.To)
		}
		if st.To != m.HomeSubnet && !v.dhcpNets[st.To] {
			ifc, _ := ifaceOf()
			if ifc.Static == nil || ifc.Static.Addr == "" {
				return fmt.Errorf("%s: subnet %q has no DHCP and iface %q no static address", ctx, st.To, st.Iface)
			}
		}
	case "cold-switch", "hot-switch":
		if _, err := ifaceOf(); err != nil {
			return err
		}
	case "switch-address":
		// The switch applies to the active interface; only the new address
		// is named.
		if _, err := ip.ParseAddr(st.Addr); err != nil {
			return fmt.Errorf("%s: %w", ctx, err)
		}
	}
	if st.Timeout < 0 || st.For < 0 {
		return fmt.Errorf("%s: negative duration", ctx)
	}
	return nil
}

func (v *validator) fault(i int, f *Fault) error {
	ctx := fmt.Sprintf("scenario %q: fault %d (%s)", v.spec.Name, i, f.Kind)
	if !slices.Contains(FaultKinds, f.Kind) {
		return fmt.Errorf("scenario %q: fault %d: unknown kind %q (want one of %v)", v.spec.Name, i, f.Kind, FaultKinds)
	}
	if f.At < 0 || f.For <= 0 {
		return fmt.Errorf("%s: needs at >= 0 and for > 0", ctx)
	}
	switch f.Kind {
	case "link-flap":
		if !v.devices[f.Device] {
			return fmt.Errorf("%s: unknown device %q", ctx, f.Device)
		}
	case "loss-burst":
		if _, ok := v.subnets[f.Subnet]; !ok {
			return fmt.Errorf("%s: unknown subnet %q", ctx, f.Subnet)
		}
		if !(f.Prob > 0 && f.Prob < 1) { // NaN fails both
			return fmt.Errorf("%s: prob %v out of range (0,1)", ctx, f.Prob)
		}
	case "ha-crash":
		if !v.routers[f.Router] {
			return fmt.Errorf("%s: unknown router %q", ctx, f.Router)
		}
	case "agent-delay":
		if !v.routers[f.Router] {
			return fmt.Errorf("%s: unknown router %q", ctx, f.Router)
		}
		if f.Delay <= 0 {
			return fmt.Errorf("%s: needs a positive delay", ctx)
		}
	}
	return nil
}

// routerDeviceName is the lowering rule for router device names: "r-" plus
// the link network name (historically "r-net-36.135" shortened to the
// network's own name).
func routerDeviceName(s *Subnet) string {
	if s == nil {
		return "r-?"
	}
	return "r-" + s.NetworkName()
}
