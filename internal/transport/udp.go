package transport

import (
	"mosquitonet/internal/ip"
	"mosquitonet/internal/stack"
)

// Datagram is a received UDP datagram with its addressing metadata.
type Datagram struct {
	From     ip.Addr
	FromPort uint16
	To       ip.Addr // the address the datagram was sent to (home vs local role)
	ToPort   uint16
	Payload  []byte
	Iface    *stack.Iface // interface of arrival (VIF for tunneled traffic)
}

// DatagramHandler receives a socket's datagrams. d.Payload is a window into
// the arriving packet, lent for the duration of the call: a handler that
// keeps bytes past its return (a deferred relay) copies them.
//
//mnet:ownership borrows d
type DatagramHandler func(d Datagram)

// UDPSocket is a bound UDP endpoint delivering datagrams to a callback.
type UDPSocket struct {
	stk     *Stack
	bound   ip.Addr
	port    uint16
	handler DatagramHandler
	closed  bool

	// Sent and Received count datagrams through this socket.
	Sent, Received uint64
}

// UDP opens a socket bound to (bound, port). A zero port allocates an
// ephemeral one; an unspecified bound address receives on all local
// addresses and leaves source selection to the route lookup (i.e. subject
// to mobile IP on a mobile host).
func (s *Stack) UDP(bound ip.Addr, port uint16, handler DatagramHandler) (*UDPSocket, error) {
	if port == 0 {
		p, err := s.ephemeralPort(bound)
		if err != nil {
			return nil, err
		}
		port = p
	}
	if s.udpSocket(bound, port) != nil {
		return nil, ErrPortInUse
	}
	u := &UDPSocket{stk: s, bound: bound, port: port, handler: handler}
	s.udp = append(s.udp, u)
	return u, nil
}

// udpSocket returns the socket bound to exactly (bound, port), or nil.
func (s *Stack) udpSocket(bound ip.Addr, port uint16) *UDPSocket {
	for _, u := range s.udp {
		if u.port == port && u.bound == bound {
			return u
		}
	}
	return nil
}

// Echo opens the UDP echo service (RFC 862) on (bound, port): every
// datagram goes straight back to where it came from. The socket's Received
// counts the datagrams served.
func (s *Stack) Echo(bound ip.Addr, port uint16) (*UDPSocket, error) {
	var u *UDPSocket
	u, err := s.UDP(bound, port, func(d Datagram) { u.SendTo(d.From, d.FromPort, d.Payload) })
	return u, err
}

// Port returns the socket's local port.
func (u *UDPSocket) Port() uint16 { return u.port }

// Bound returns the socket's bound address (possibly unspecified).
func (u *UDPSocket) Bound() ip.Addr { return u.bound }

// Close releases the socket's binding.
func (u *UDPSocket) Close() {
	if u.closed {
		return
	}
	u.closed = true
	socks := u.stk.udp
	last := len(socks) - 1
	for i, v := range socks {
		if v == u {
			socks[i], socks[last] = socks[last], nil
			u.stk.udp = socks[:last]
			return
		}
	}
}

// Rebind moves the socket to (bound, its port), as Close followed by UDP
// with the same handler would: a mobile host's registration socket follows
// its care-of address. If the address is taken the socket is left closed.
func (u *UDPSocket) Rebind(bound ip.Addr) error {
	u.Close()
	if u.stk.udpSocket(bound, u.port) != nil {
		return ErrPortInUse
	}
	u.bound, u.closed = bound, false
	u.stk.udp = append(u.stk.udp, u)
	return nil
}

// SendTo transmits payload to (dst, dport). It asks the host's route
// lookup once — the transport-layer call into ip_rt_route() the paper
// describes — and that one decision does both jobs: its source (or the
// socket's bound address) is the one the pseudo-header checksum is computed
// against, and its interface and next hop are the route the datagram takes
// (stack.Host.OutputRouted). An unroutable destination returns the lookup's
// error, and nothing is sent.
func (u *UDPSocket) SendTo(dst ip.Addr, dport uint16, payload []byte) error {
	if u.closed {
		return ErrClosed
	}
	dec, err := u.stk.host.RouteLookup(dst, u.bound)
	if err != nil {
		return err
	}
	src := u.bound
	if src.IsUnspecified() {
		src = dec.Src
	}
	pkt := ip.NewUDPPacket(u.stk.host.Packets(), src, dst, ip.UDPHeader{SrcPort: u.port, DstPort: dport}, payload)
	u.Sent++
	u.stk.host.OutputRouted(pkt, dec)
	return nil
}

// SendToVia transmits a datagram out a specific interface toward nextHop,
// bypassing routing. DHCP clients use it before they have an address.
func (u *UDPSocket) SendToVia(ifc *stack.Iface, nextHop, dst ip.Addr, dport uint16, payload []byte) error {
	if u.closed {
		return ErrClosed
	}
	src := u.bound
	pkt := ip.NewUDPPacket(u.stk.host.Packets(), src, dst, ip.UDPHeader{SrcPort: u.port, DstPort: dport}, payload)
	u.Sent++
	return u.stk.host.OutputVia(ifc, pkt, nextHop)
}

// udpInput demultiplexes a received UDP packet: exact binding first, then
// the wildcard binding on the same port. The packet is lent, and so is the
// datagram handed on: its payload is a window into the packet's.
func (s *Stack) udpInput(ifc *stack.Iface, pkt *ip.Packet) {
	h, payload, err := ip.UnmarshalUDP(pkt.Src, pkt.Dst, pkt.Payload)
	if err != nil {
		s.stats.UDPBadChecksum++
		return
	}
	// Exact (addr, port) binding first; a wildcard binding on the same
	// port is next in line. A handler-less exact binding (a send-only
	// socket, like a probe's source) must not mask the wildcard: it has
	// nowhere to deliver, so the datagram falls through rather than being
	// swallowed as UDPNoSocket. One scan finds both.
	var sock, wild *UDPSocket
	for _, u := range s.udp {
		if u.port != h.DstPort || u.handler == nil {
			continue
		}
		if u.bound == pkt.Dst {
			sock = u
			break
		}
		if u.bound.IsUnspecified() {
			wild = u
		}
	}
	if sock == nil {
		sock = wild
	}
	if sock == nil {
		s.stats.UDPNoSocket++
		return
	}
	s.stats.UDPDelivered++
	sock.Received++
	sock.handler(Datagram{
		From:     pkt.Src,
		FromPort: h.SrcPort,
		To:       pkt.Dst,
		ToPort:   h.DstPort,
		Payload:  payload,
		Iface:    ifc,
	})
}
