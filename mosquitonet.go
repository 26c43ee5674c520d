// Package mosquitonet is a from-scratch reproduction of "Supporting
// Mobility in MosquitoNet" (Baker, Zhao, Cheshire, Stone — USENIX 1996):
// a mobile-IP system in which mobile hosts require no foreign agents, only
// basic connectivity and a temporary care-of address, on top of a
// deterministic discrete-event network simulator with real wire formats.
//
// The package is a façade over the internal packages:
//
//   - sim: the deterministic event loop and virtual clock;
//   - ip, link, arp, stack, tunnel, dhcp, transport: the network substrate
//     (IPv4 with real checksums, Ethernet/radio media, ARP with proxy and
//     gratuitous support, per-host IP stacks with a pluggable route
//     lookup, the VIF/IP-in-IP module, DHCP, UDP and a TCP-like stream);
//   - mip: the paper's contribution — MobileHost, HomeAgent, the Mobile
//     Policy Table, the registration protocol, and the optional
//     ForeignAgent extension;
//   - scenario, testbed: declarative worlds, the paper's Figure 5
//     environment, and every experiment in its evaluation.
//
// Use NewWorld to assemble custom topologies, or NewTestbed for the
// paper's own environment. The façade names exactly what World's API, the
// examples, the commands and the root tests use; cmd/experiments drives
// the evaluation (internal/testbed's Run* functions) directly.
package mosquitonet

import (
	"mosquitonet/internal/dhcp"
	"mosquitonet/internal/dns"
	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/metrics"
	"mosquitonet/internal/mip"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/stack"
	"mosquitonet/internal/testbed"
	"mosquitonet/internal/trace"
	"mosquitonet/internal/transport"
)

// Core simulation types.
type (
	// Loop is the deterministic discrete-event simulation loop.
	Loop = sim.Loop
	// Time is an instant in virtual time.
	Time = sim.Time
	// Tracer records structured simulation events.
	Tracer = trace.Tracer
	// MetricsRegistry holds a simulation's labeled counters, gauges and
	// histograms, keyed `layer.object.event`.
	MetricsRegistry = metrics.Registry
	// PacketLog records packet-lifecycle events keyed by trace ID.
	PacketLog = metrics.PacketLog
)

// Addressing, link-layer and host-stack types.
type (
	// Addr is an IPv4 address.
	Addr = ip.Addr
	// IPPrefix is an IPv4 CIDR prefix.
	IPPrefix = ip.Prefix
	// Packet is an IPv4 packet. One a program builds as a literal is its
	// own (and the garbage collector's) until it is handed to a host's
	// Output or Input, which take it; one a filter, hook or protocol
	// handler is handed is lent for the call — the stack recycles it
	// afterwards, so what must be kept is kept as pkt.Clone().
	Packet = ip.Packet
	// Network is a broadcast domain with a medium model.
	Network = link.Network
	// Medium describes latency/bandwidth/loss/MTU of a network.
	Medium = link.Medium
	// Host is a simulated IP host.
	Host = stack.Host
	// Iface is a host's network interface.
	Iface = stack.Iface
	// PingResult reports an ICMP echo outcome.
	PingResult = stack.PingResult
	// Transport multiplexes UDP sockets and stream connections on a host.
	Transport = transport.Stack
	// UDPSocket is a bound UDP endpoint.
	UDPSocket = transport.UDPSocket
	// Datagram is a received UDP datagram; its Payload is lent for the
	// handler call — copy what you keep.
	Datagram = transport.Datagram
	// Conn is a reliable byte-stream connection (TCP-like).
	Conn = transport.Conn
)

// Mobile-IP types (the paper's contribution).
type (
	// MobileHost is the mobile side of the protocol.
	MobileHost = mip.MobileHost
	// ManagedIface is an interface under mobility management.
	ManagedIface = mip.ManagedIface
	// HomeAgent serves a home subnet's mobile hosts.
	HomeAgent = mip.HomeAgent
	// ForeignAgent is the optional visited-network agent extension.
	ForeignAgent = mip.ForeignAgent
	// LinkChange notifies upper layers of connectivity changes.
	LinkChange = mip.LinkChange
)

// DHCP and DNS types.
type (
	// DHCPServer leases addresses on a subnet.
	DHCPServer = dhcp.Server
	// DHCPServerConfig configures a DHCPServer.
	DHCPServerConfig = dhcp.ServerConfig
	// DNSServerConfig configures a DNS server (the "extended DNS" of the
	// paper's release notes).
	DNSServerConfig = dns.ServerConfig
)

// Mobile Policy Table policies.
const (
	PolicyTunnel      = mip.PolicyTunnel
	PolicyTriangle    = mip.PolicyTriangle
	PolicyEncapDirect = mip.PolicyEncapDirect
)

// Re-exported constructors and helpers.
var (
	// NewShardSet groups independent loops for deterministic parallel
	// execution: byte-identical results at any worker count.
	NewShardSet = sim.NewShardSet

	// Ethernet and Radio are the calibrated media of the paper's testbed.
	Ethernet = link.Ethernet
	Radio    = link.Radio

	// MakeSmartCorrespondent gives an ordinary host transparent IP-in-IP
	// decapsulation for the encapsulated-direct optimization.
	MakeSmartCorrespondent = mip.MakeSmartCorrespondent

	// NewDHCPServer builds the address-assignment service mobile hosts
	// rely on in foreign networks.
	NewDHCPServer = dhcp.NewServer

	// NewDNSServer and NewDNSResolver provide naming: with MosquitoNet a
	// mobile host's name resolves to its permanent home address and stays
	// valid through every move.
	NewDNSServer   = dns.NewServer
	NewDNSResolver = dns.NewResolver

	// NewTestbed assembles the paper's Figure 5 environment, compiled from
	// the figure5 scenario spec.
	NewTestbed = testbed.New
)

// Well-known addresses of the Figure 5 testbed.
var (
	DeptPrefix     = testbed.DeptPrefix     // CS department subnet 36.8
	RouterHomeAddr = testbed.RouterHomeAddr // the router / home agent on the home subnet
	CHAddr         = testbed.CHAddr         // correspondent on net 36.8
	CampusCHAddr   = testbed.CampusCHAddr   // correspondent elsewhere on campus
)

// Unspecified is the zero IPv4 address; sockets bound to it are subject to
// mobile IP on a mobile host.
var Unspecified = ip.Unspecified
