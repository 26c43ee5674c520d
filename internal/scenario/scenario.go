// Package scenario makes experiments declarative: a versioned JSON schema
// for topology (subnets, routers, end hosts, mobile hosts, sharded
// fleets), mobility itineraries, traffic mixes (probe flows, MQTT-style
// pub/sub, HTTP-style request/response), and a fault-injection schedule —
// plus the machinery that turns a spec into a running world:
//
//   - Parse / Marshal: a strict parser (unknown fields rejected, trailing
//     data rejected) whose output round-trips byte-stably;
//   - Validate: deterministic reference resolution and bounds checking,
//     reported in spec order so two runs produce identical error text;
//   - Compile: lowering onto the existing sim/link/stack/mip/dhcp/app
//     builders, in strict spec order so a compiled world is byte-identical
//     to the hand-written construction it replaced;
//   - Run: a compiled World executes its own spec — attach, start the
//     declared traffic (probes, MQTT, HTTP), walk the itinerary, drain —
//     and returns the flows with their trackers, the handoff/fault
//     attribution windows and the fault records;
//   - Injector: first-class scheduled fault events (link flaps, home-agent
//     crashes, loss bursts, registration-delay spikes) with fault.* trace
//     spans that double as disruption-attribution windows;
//   - Console: the runtime admin surface (inspect hosts, routes, bindings,
//     faults and metrics; add and delete routes; schedule faults mid-run)
//     behind `mnet -admin`;
//   - GenerateSweep: a seeded, deterministic randomized-scenario generator
//     that perturbs itineraries, traffic and fault schedules within schema
//     bounds.
//
// The checked-in experiment scenarios live in
// internal/testbed/testdata/scenarios/; package testbed parses and
// validates every one (and rejects duplicate names) when it is
// initialised, and TestGenericRunnerWalksCatalog resolves each one's base.
// See DESIGN.md §14 for the schema, the compiler's lowering rules, and the
// fault-event semantics.
package scenario

import (
	"encoding/json"
	"fmt"
	"time"
)

// SchemaVersion is the current scenario schema version. Parse rejects any
// other value, so schema evolution is always an explicit migration.
const SchemaVersion = 1

// Duration is a time.Duration that marshals as its String() form
// ("250ms", "1.21ms") and unmarshals via time.ParseDuration. The string
// form round-trips exactly, which the parser's fuzz target pins.
type Duration time.Duration

// D returns the native duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

func (d Duration) String() string { return time.Duration(d).String() }

// MarshalJSON renders the duration as a JSON string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts only a JSON string in time.ParseDuration syntax.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("duration must be a string like \"250ms\": %w", err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = Duration(v)
	return nil
}

// Spec is one complete scenario: what to build, how the mobile host moves,
// what traffic flows, and which faults strike when.
type Spec struct {
	Version     int    `json:"version"`
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	// Base names another scenario whose topology this one inherits. A
	// spec with Base set must leave Topology empty; ResolveBase fills it.
	Base string `json:"base,omitempty"`

	Topology  Topology `json:"topology"`
	Traffic   *Traffic `json:"traffic,omitempty"`
	Itinerary []Step   `json:"itinerary,omitempty"`
	Faults    []Fault  `json:"faults,omitempty"`
}

// Topology declares the world: either subnets/routers/hosts/mobiles for a
// single-loop world, or a Fleet for the sharded campus-scale topology.
type Topology struct {
	Subnets []Subnet  `json:"subnets,omitempty"`
	Routers []Router  `json:"routers,omitempty"`
	Hosts   []EndHost `json:"hosts,omitempty"`
	Mobiles []Mobile  `json:"mobiles,omitempty"`
	Fleet   *Fleet    `json:"fleet,omitempty"`
}

// IsZero reports whether the topology declares nothing (a base-inheriting
// spec before resolution).
func (t Topology) IsZero() bool {
	return len(t.Subnets) == 0 && len(t.Routers) == 0 && len(t.Hosts) == 0 &&
		len(t.Mobiles) == 0 && t.Fleet == nil
}

// MediumKinds are the named media a subnet may use; "custom" takes the
// inline latency/bandwidth/loss fields.
var MediumKinds = []string{"ethernet", "radio", "serial", "backbone", "custom"}

// Medium selects a link medium: one of the calibrated named media, or a
// custom one described inline.
type Medium struct {
	Kind string `json:"kind"`
	// The fields below apply only to kind "custom".
	Name          string   `json:"name,omitempty"`
	Latency       Duration `json:"latency,omitempty"`
	LatencyJitter Duration `json:"latency_jitter,omitempty"`
	BitRate       int64    `json:"bit_rate,omitempty"`
	LossProb      float64  `json:"loss_prob,omitempty"`
	MTU           int      `json:"mtu,omitempty"`
}

// Subnet is one broadcast domain.
type Subnet struct {
	Name string `json:"name"`
	// Network is the link.Network name; defaults to "net-<name>".
	Network      string `json:"network,omitempty"`
	Prefix       string `json:"prefix"`
	Medium       Medium `json:"medium"`
	PointToPoint bool   `json:"point_to_point,omitempty"`
}

// NetworkName returns the link-layer network name for the subnet.
func (s Subnet) NetworkName() string {
	if s.Network != "" {
		return s.Network
	}
	return "net-" + s.Name
}

// Delays are a host's per-packet software costs.
type Delays struct {
	Input   Duration `json:"input,omitempty"`
	Output  Duration `json:"output,omitempty"`
	Forward Duration `json:"forward,omitempty"`
}

// Router is a forwarding host with one interface per listed subnet, and
// optionally a collocated home agent and DHCP service.
type Router struct {
	Name      string         `json:"name"`
	Delays    Delays         `json:"delays"`
	Ifaces    []RouterIface  `json:"ifaces"`
	HomeAgent *HomeAgentSpec `json:"home_agent,omitempty"`
	DHCP      *DHCPSpec      `json:"dhcp,omitempty"`
}

// RouterIface is one router attachment.
type RouterIface struct {
	Subnet string `json:"subnet"`
	Addr   string `json:"addr"`
}

// HomeAgentSpec collocates a mobile-IP home agent on a router.
type HomeAgentSpec struct {
	Subnet     string   `json:"subnet"`
	Processing Duration `json:"processing,omitempty"`
}

// DHCPSpec collocates a DHCP server on a router, leasing host numbers
// [FirstHost, LastHost] on the subnet.
type DHCPSpec struct {
	Subnet     string   `json:"subnet"`
	FirstHost  int      `json:"first_host"`
	LastHost   int      `json:"last_host"`
	Processing Duration `json:"processing,omitempty"`
}

// EndHost is an ordinary (non-mobile) host with a default route.
type EndHost struct {
	Name    string   `json:"name"`
	Subnet  string   `json:"subnet"`
	Addr    string   `json:"addr"`
	Gateway string   `json:"gateway"`
	Delay   Duration `json:"delay,omitempty"`
}

// Mobile is a mobile host with managed interfaces.
type Mobile struct {
	Name             string        `json:"name"`
	HomeAddr         string        `json:"home_addr"`
	HomeSubnet       string        `json:"home_subnet"`
	HomeAgent        string        `json:"home_agent"` // the agent's address
	Lifetime         Duration      `json:"lifetime,omitempty"`
	ConfigureDelay   Duration      `json:"configure_delay,omitempty"`
	RouteChangeDelay Duration      `json:"route_change_delay,omitempty"`
	Delay            Duration      `json:"delay,omitempty"`
	Ifaces           []MobileIface `json:"ifaces"`
}

// MobileIface is one interface under mobility management. A nil Static
// means the interface configures itself by DHCP when visiting foreign
// subnets.
type MobileIface struct {
	Name          string      `json:"name"`
	Device        string      `json:"device"`
	Attach        string      `json:"attach"` // initial subnet
	BringUp       Duration    `json:"bring_up,omitempty"`
	BringUpJitter Duration    `json:"bring_up_jitter,omitempty"`
	Static        *StaticAddr `json:"static,omitempty"`
}

// StaticAddr fixes a foreign interface's address and gateway (the prefix
// is the attach subnet's).
type StaticAddr struct {
	Addr    string `json:"addr"`
	Gateway string `json:"gateway"`
}

// Fleet declares the sharded campus-scale roaming topology: N mobile
// hosts partitioned over campus shards joined to a backbone hub by
// point-to-point trunks. The shard count and addressing plan are pure
// functions of the tier size (DESIGN.md §14 lowering rules), so results
// are byte-identical at any worker count. A fleet declares no per-packet
// costs: its builder takes them from the figure5 spec.
type Fleet struct {
	Tiers         []int    `json:"tiers"`
	Duration      Duration `json:"duration"`
	SwitchPeriod  Duration `json:"switch_period"`
	ProbeInterval Duration `json:"probe_interval"`
	ProbeStart    Duration `json:"probe_start"`
	CrossEvery    int      `json:"cross_every"`
	Stagger       Duration `json:"stagger"`
}

// StepOps are the itinerary operations.
var StepOps = []string{
	"connect-home", "settle", "move", "cold-switch", "cold-switch-home",
	"hot-switch", "switch-address",
}

// Step is one itinerary operation. Ops that complete asynchronously
// (switches, connects) run the loop until done or Timeout (default 30s).
type Step struct {
	Op      string   `json:"op"`
	Mobile  string   `json:"mobile,omitempty"` // defaults to the sole mobile
	Iface   string   `json:"iface,omitempty"`
	To      string   `json:"to,omitempty"`   // move: target subnet
	Addr    string   `json:"addr,omitempty"` // switch-address
	Gateway string   `json:"gateway,omitempty"`
	For     Duration `json:"for,omitempty"` // settle duration
	Timeout Duration `json:"timeout,omitempty"`
}

// Traffic declares the workload mix.
type Traffic struct {
	Probes []Probe   `json:"probes,omitempty"`
	MQTT   *MQTTSpec `json:"mqtt,omitempty"`
	HTTP   *HTTPSpec `json:"http,omitempty"`
	// Drain bounds the post-itinerary wait for reliable flows to deliver
	// everything in flight.
	Drain Duration `json:"drain,omitempty"`
}

// Probe is a one-way sequence-numbered UDP flow into a stats.FlowTracker.
type Probe struct {
	Name     string   `json:"name"`
	From     string   `json:"from"` // sending host
	To       string   `json:"to"`   // receiving host (wildcard-bound sink)
	Dst      string   `json:"dst"`  // destination address
	Port     int      `json:"port"`
	Interval Duration `json:"interval"`
}

// Service places a server on a host and port.
type Service struct {
	Host string `json:"host"`
	Port int    `json:"port"`
}

// MQTTSpec is a broker plus clients plus QoS-tracked publications.
type MQTTSpec struct {
	Broker  Service       `json:"broker"`
	Clients []MQTTClient  `json:"clients"`
	Pubs    []Publication `json:"publications"`
}

// MQTTClient is one named client session on a host.
type MQTTClient struct {
	Name string `json:"name"`
	Host string `json:"host"`
}

// Publication is one open-loop QoS-tracked topic flow from one client to
// a subscribing client.
type Publication struct {
	Topic    string   `json:"topic"`
	From     string   `json:"from"` // publishing client name
	To       string   `json:"to"`   // subscribing client name
	QoS      int      `json:"qos"`
	Interval Duration `json:"interval"`
	Size     int      `json:"size"`
}

// HTTPSpec is a request/response server plus client flows.
type HTTPSpec struct {
	Server Service    `json:"server"`
	Flows  []HTTPFlow `json:"flows"`
}

// HTTPFlow is one request flow: open-loop (fixed interval) or closed-loop
// (think time after each response).
type HTTPFlow struct {
	Name     string   `json:"name"`
	Client   string   `json:"client"` // client label, for trace attribution
	Host     string   `json:"host"`
	Path     string   `json:"path"`
	Closed   bool     `json:"closed,omitempty"`
	Interval Duration `json:"interval"`
	Size     int      `json:"size"`
}

// FaultKinds are the schedulable fault-injection primitives.
var FaultKinds = []string{"link-flap", "loss-burst", "ha-crash", "agent-delay"}

// Fault is one scheduled fault event: at At, the fault strikes; after For,
// it heals. Each emits a fault.* span covering [At, At+For].
type Fault struct {
	At   Duration `json:"at"`
	Kind string   `json:"kind"`
	For  Duration `json:"for"`

	Device string   `json:"device,omitempty"` // link-flap: device name
	Subnet string   `json:"subnet,omitempty"` // loss-burst: subnet name
	Prob   float64  `json:"prob,omitempty"`   // loss-burst: loss probability
	Router string   `json:"router,omitempty"` // ha-crash / agent-delay
	Delay  Duration `json:"delay,omitempty"`  // agent-delay: processing delay
}
