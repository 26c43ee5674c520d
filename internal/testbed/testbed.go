package testbed

import (
	"fmt"
	"time"

	"mosquitonet/internal/dhcp"
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

// Well-known testbed addresses (Figure 5). These mirror the figure5
// scenario spec (testdata/scenarios/figure5.json) so experiment code can
// reference the topology without re-parsing it; TestFigure5SpecMatches
// pins the two against each other.
var (
	HomePrefix   = ip.MustParsePrefix("36.135.0.0/16") // MosquitoNet home subnet
	DeptPrefix   = ip.MustParsePrefix("36.8.0.0/16")   // CS department subnet
	RadioPrefix  = ip.MustParsePrefix("36.134.0.0/16") // Metricom radio subnet
	CampusPrefix = ip.MustParsePrefix("36.22.0.0/16")  // a campus net outside the department

	RouterHomeAddr  = ip.MustParseAddr("36.135.0.1")
	RouterDeptAddr  = ip.MustParseAddr("36.8.0.1")
	RouterRadioAddr = ip.MustParseAddr("36.134.0.1")

	MHHomeAddr  = ip.MustParseAddr("36.135.0.7") // the mobile host's permanent address
	MHRadioAddr = ip.MustParseAddr("36.134.0.7") // its fixed address on the radio subnet

	// SlowPrefix is a remote wired subnet reached across slow, high-latency
	// infrastructure; the foreign-agent ablation (A2) visits it because
	// packets in flight toward it take long enough to strand.
	SlowPrefix     = ip.MustParsePrefix("36.40.0.0/16")
	RouterSlowAddr = ip.MustParseAddr("36.40.0.1")
	MHSlowAddr     = ip.MustParseAddr("36.40.0.7") // MH's static address when collocated there
	FASlowAddr     = ip.MustParseAddr("36.40.0.2") // the foreign agent's address there

	CHAddr       = ip.MustParseAddr("36.8.0.99")  // correspondent on net 36.8
	CampusCHAddr = ip.MustParseAddr("36.22.0.99") // correspondent elsewhere on campus
)

// Testbed is the assembled Figure 5 environment: a compiled scenario
// world plus named role bindings for the entities every experiment
// touches. The roles are bound by the conventional figure5 names (subnet
// "home", host "ch", mobile "mh" with ifaces "eth0"/"strip0"); scenarios
// that omit a role leave its field nil.
type Testbed struct {
	// World is the compiled scenario: the full entity index, the
	// itinerary runner, and the fault injector.
	World *scenario.World

	Loop   *sim.Loop
	Tracer *trace.Tracer

	// Metrics is the simulation's telemetry registry and Packets its
	// packet-lifecycle log; both are enabled before any host or device is
	// built, so every layer registers itself.
	Metrics *metrics.Registry
	Packets *metrics.PacketLog

	HomeNet, DeptNet, RadioNet, CampusNet, SlowNet *link.Network

	// Router is the Pentium 90 connecting the subnets; the home agent and
	// the department's DHCP server are collocated on it, as in the paper's
	// usual configuration.
	Router   *stack.Host
	RouterTS *transport.Stack
	HA       *mip.HomeAgent
	DHCP     *dhcp.Server

	CH       *transport.Stack // correspondent host on 36.8
	CampusCH *transport.Stack // correspondent host on 36.22

	MH    *mip.MobileHost
	MHTS  *transport.Stack
	Eth   *mip.ManagedIface // PCMCIA Ethernet: home subnet or visiting 36.8
	Strip *mip.ManagedIface // Metricom radio on 36.134
}

// New assembles the testbed by compiling the figure5 scenario spec. All
// devices start down except the infrastructure's; drive the mobile host
// with ConnectHome / ColdSwitch / etc. on tb.MH.
func New(seed int64) *Testbed {
	tb, err := NewFromSpec(seed, MustScenario("figure5"))
	if err != nil {
		panic(fmt.Sprintf("testbed: %v", err))
	}
	return tb
}

// NewFromSpec compiles any resolved scenario spec and binds the Figure-5
// role fields by their conventional names. Experiment drivers use it to
// assemble variant scenarios (handoff, loadedhandoff, sweep offspring)
// that share the figure5 base topology.
func NewFromSpec(seed int64, spec *scenario.Spec) (*Testbed, error) {
	w, err := scenario.Compile(seed, spec)
	if err != nil {
		return nil, err
	}
	tb := &Testbed{
		World:     w,
		Loop:      w.Loop,
		Tracer:    w.Tracer,
		Metrics:   w.Metrics,
		Packets:   w.Packets,
		HomeNet:   w.Networks["home"],
		DeptNet:   w.Networks["dept"],
		RadioNet:  w.Networks["radio"],
		CampusNet: w.Networks["campus"],
		SlowNet:   w.Networks["slow"],
		CH:        w.Stacks["ch"],
		CampusCH:  w.Stacks["campus-ch"],
	}
	if rs := spec.Topology.Routers; len(rs) == 1 {
		name := rs[0].Name
		tb.Router = w.Routers[name]
		tb.RouterTS = w.RouterTS[name]
		tb.HA = w.HAs[name]
		tb.DHCP = w.DHCPs[name]
	}
	if ms := spec.Topology.Mobiles; len(ms) == 1 {
		name := ms[0].Name
		tb.MH = w.Mobiles[name]
		tb.MHTS = w.Stacks[name]
		tb.Eth = w.MIfaces[name+"/eth0"]
		tb.Strip = w.MIfaces[name+"/strip0"]
	}
	return tb, nil
}

// Run advances the simulation.
func (tb *Testbed) Run(d time.Duration) { tb.Loop.RunFor(d) }

// MoveEthTo reattaches the PCMCIA Ethernet card to another network
// (carrying the subnotebook to a different wall jack). The device must be
// reconnected with a ColdSwitch (or Prepare) afterwards.
func (tb *Testbed) MoveEthTo(n *link.Network) {
	tb.Eth.Iface().Device().Detach()
	tb.Eth.Iface().Device().Attach(n)
}

// MustConnectHome attaches the mobile host at home and fails the
// simulation on error.
func (tb *Testbed) MustConnectHome() {
	var fail error
	done := false
	tb.MH.ConnectHome(tb.Eth, RouterHomeAddr, func(err error) { fail, done = err, true })
	tb.Run(10 * time.Second)
	if !done || fail != nil {
		panic(fmt.Sprintf("testbed: ConnectHome: done=%v err=%v", done, fail))
	}
}

// MustConnectForeign attaches an interface on a foreign network and fails
// the simulation on error.
func (tb *Testbed) MustConnectForeign(mi *mip.ManagedIface) {
	var fail error
	done := false
	tb.MH.ConnectForeign(mi, func(err error) { fail, done = err, true })
	tb.Run(30 * time.Second)
	if !done || fail != nil {
		panic(fmt.Sprintf("testbed: ConnectForeign(%s): done=%v err=%v", mi.Name(), done, fail))
	}
}
