package main

import (
	"mosquitonet/internal/app"
	"mosquitonet/internal/dhcp"
	"mosquitonet/internal/link"
	"mosquitonet/internal/mip"
	"mosquitonet/internal/stack"
	"mosquitonet/internal/transport"
	"mosquitonet/internal/tunnel"
)

// count is one exact per-layer counter read after a run. The simulator is
// deterministic, so for a given seed every count repeats exactly at any
// worker count; they are what the fingerprint hashes.
type count struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// tally sums the public Stats() of a world's objects into per-layer
// counts. Both world kinds feed it, so a name means the same thing on
// every workload.
type tally struct {
	events, queueHighWater, epochs, epochsSkipped, crossPosts uint64

	linkTx, linkDelivered, linkLost uint64

	arpRequests, arpGratuitous, arpDropped uint64

	stackSent, stackForwarded, stackDelivered, stackDropped, stackFragments uint64
	routeHits, routeMisses, routeInvalidations                              uint64

	encapsulated, decapsulated, tunnelDropped uint64

	registrations, regRetransmits, regTimeouts, haRequests, dhcpAcks uint64

	udpDelivered, tcpSegments, tcpRetransmits, tcpBytesAcked uint64

	mqttPublishes, mqttDelivered, httpResponses uint64

	traceEvents, traceSpans, traceDropped           uint64
	packetLogEvents, packetLogEvicted, snapshotRows uint64
}

func (t *tally) addNetwork(n *link.Network) {
	s := n.Stats()
	t.linkTx += s.Transmitted
	t.linkDelivered += s.Delivered
	t.linkLost += s.LostMedium
}

// addHost counts a host's IP layer, its route cache and the ARP caches of
// its interfaces.
func (t *tally) addHost(h *stack.Host) {
	s := h.Stats()
	t.stackSent += s.Sent
	t.stackForwarded += s.Forwarded
	t.stackDelivered += s.Delivered
	t.stackDropped += s.DropNoRoute + s.DropTTL + s.DropFilter + s.DropBadPacket +
		s.DropNotLocal + s.DropNoHandler + s.DropMTU
	t.stackFragments += s.FragmentsSent
	rc := h.RouteCacheStats()
	t.routeHits += rc.Hits
	t.routeMisses += rc.Misses
	t.routeInvalidations += rc.Invalidations
	for _, ifc := range h.Ifaces() {
		if c := ifc.ARP(); c != nil {
			as := c.Stats()
			t.arpRequests += as.RequestsSent
			t.arpGratuitous += as.GratuitousSent
			t.arpDropped += as.PacketsDropped
		}
	}
}

func (t *tally) addTunnel(e *tunnel.Endpoint) {
	s := e.Stats()
	t.encapsulated += s.Encapsulated
	t.decapsulated += s.Decapsulated
	t.tunnelDropped += s.DropNoDst + s.DropNoSrc + s.DropBadInner + s.DropPeer + s.DropOutput
}

func (t *tally) addMobile(m *mip.MobileHost) {
	s := m.Stats()
	t.registrations += s.Registrations
	t.regRetransmits += s.RegRetransmits
	t.regTimeouts += s.RegTimeouts
	t.addTunnel(m.Tunnel())
}

func (t *tally) addHomeAgent(ha *mip.HomeAgent) {
	t.haRequests += ha.Stats().Requests
	t.addTunnel(ha.Tunnel())
}

func (t *tally) addDHCP(s *dhcp.Server) { t.dhcpAcks += s.Stats().Acks }

func (t *tally) addTransport(ts *transport.Stack) {
	s := ts.StatsSnapshot()
	t.udpDelivered += s.UDPDelivered
	t.tcpSegments += s.TCPSegments
}

func (t *tally) addConn(c *transport.Conn) {
	s := c.Stats()
	t.tcpRetransmits += s.Retransmits
	t.tcpBytesAcked += s.BytesAcked
}

func (t *tally) addBroker(b *app.Broker) {
	s := b.Stats()
	t.mqttPublishes += s.Publishes
	t.mqttDelivered += s.Delivered
}

func (t *tally) addHTTPServer(s *app.HTTPServer) { t.httpResponses += s.Stats().Responses }

// counts lists the tally under the per-layer metric names, in the fixed
// order the fingerprint hashes them.
func (t *tally) counts() []count {
	return []count{
		{"sim.events", t.events},
		{"sim.queue_high_water", t.queueHighWater},
		{"sim.epochs", t.epochs},
		{"sim.epochs_skipped", t.epochsSkipped},
		{"sim.cross_posts", t.crossPosts},
		{"link.transmitted", t.linkTx},
		{"link.delivered", t.linkDelivered},
		{"link.lost_medium", t.linkLost},
		{"arp.requests", t.arpRequests},
		{"arp.gratuitous", t.arpGratuitous},
		{"arp.dropped", t.arpDropped},
		{"stack.sent", t.stackSent},
		{"stack.forwarded", t.stackForwarded},
		{"stack.delivered", t.stackDelivered},
		{"stack.dropped", t.stackDropped},
		{"stack.fragments", t.stackFragments},
		{"stack.route_hits", t.routeHits},
		{"stack.route_misses", t.routeMisses},
		{"stack.route_invalidations", t.routeInvalidations},
		{"tunnel.encapsulated", t.encapsulated},
		{"tunnel.decapsulated", t.decapsulated},
		{"tunnel.dropped", t.tunnelDropped},
		{"mip.registrations", t.registrations},
		{"mip.reg_retransmits", t.regRetransmits},
		{"mip.reg_timeouts", t.regTimeouts},
		{"mip.ha_requests", t.haRequests},
		{"dhcp.acks", t.dhcpAcks},
		{"transport.udp_delivered", t.udpDelivered},
		{"transport.tcp_segments", t.tcpSegments},
		{"transport.tcp_retransmits", t.tcpRetransmits},
		{"transport.tcp_bytes_acked", t.tcpBytesAcked},
		{"app.mqtt_publishes", t.mqttPublishes},
		{"app.mqtt_delivered", t.mqttDelivered},
		{"app.http_responses", t.httpResponses},
		{"trace.events", t.traceEvents},
		{"trace.spans", t.traceSpans},
		{"trace.dropped", t.traceDropped},
		{"metrics.packetlog_events", t.packetLogEvents},
		{"metrics.packetlog_evicted", t.packetLogEvicted},
		{"metrics.snapshot_rows", t.snapshotRows},
	}
}
