// Package transport implements the simulator's transport layer on top of
// the host stack: UDP sockets and a TCP-like reliable byte stream
// ("Stream") with handshake, cumulative acknowledgments, retransmission
// with RTT estimation, and orderly close.
//
// The part that matters for mobility is binding. A socket bound to the
// unspecified address asks the (possibly mobility-overridden) route lookup
// for its source address at send time — under MosquitoNet this yields the
// home address and the packet is subject to mobile IP, so connections
// survive moves without the application noticing. A socket bound to a
// specific interface address is in the mobile host's "local role" and
// bypasses mobility entirely. This mirrors the paper's two packet classes.
package transport

import (
	"errors"
	"fmt"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/stack"
)

// Stack multiplexes UDP sockets and stream connections over one host.
type Stack struct {
	host *stack.Host
	loop *sim.Loop

	// udp holds the open UDP sockets, unordered: a host binds a handful
	// (an echo service, a probe's source, a registration socket that
	// follows the care-of address), so a scan beats hashing and an empty
	// table costs nothing.
	udp       []*UDPSocket
	conns     map[connKey]*Conn
	listeners map[bindKey]*Listener

	portSeq uint16
	stats   Stats
}

// Stats counts transport-layer activity.
type Stats struct {
	UDPDelivered   uint64
	UDPNoSocket    uint64
	UDPBadChecksum uint64
	TCPSegments    uint64
	TCPNoConn      uint64
	TCPBadChecksum uint64
}

type bindKey struct {
	addr ip.Addr
	port uint16
}

type connKey struct {
	laddr ip.Addr
	lport uint16
	raddr ip.Addr
	rport uint16
}

// Transport errors.
var (
	ErrPortInUse   = errors.New("transport: address already in use")
	ErrClosed      = errors.New("transport: socket closed")
	ErrNoPorts     = errors.New("transport: ephemeral ports exhausted")
	ErrConnReset   = errors.New("transport: connection reset")
	ErrConnTimeout = errors.New("transport: connection timed out")
)

// NewStack attaches a transport stack to h, registering its UDP and TCP
// protocol handlers.
func NewStack(h *stack.Host) *Stack {
	s := &Stack{
		host:    h,
		loop:    h.Loop(),
		portSeq: 32768,
	}
	h.RegisterHandler(ip.ProtoUDP, s.udpInput)
	h.RegisterHandler(ip.ProtoTCP, s.tcpInput)
	return s
}

// Host returns the underlying host.
func (s *Stack) Host() *stack.Host { return s.host }

// StatsSnapshot returns a copy of the counters.
func (s *Stack) StatsSnapshot() Stats { return s.stats }

// ephemeralPort allocates an unused port for the given address scope,
// checking both UDP and TCP namespaces for simplicity.
func (s *Stack) ephemeralPort(addr ip.Addr) (uint16, error) {
	for i := 0; i < 65536; i++ {
		s.portSeq++
		if s.portSeq < 32768 {
			s.portSeq = 32768
		}
		k := bindKey{addr, s.portSeq}
		w := bindKey{ip.Unspecified, s.portSeq}
		if s.udpSocket(addr, s.portSeq) == nil && s.udpSocket(ip.Unspecified, s.portSeq) == nil &&
			s.listeners[k] == nil && s.listeners[w] == nil {
			return s.portSeq, nil
		}
	}
	return 0, ErrNoPorts
}

func (s *Stack) String() string {
	return fmt.Sprintf("transport(%s: %d udp, %d conns, %d listeners)",
		s.host.Name(), len(s.udp), len(s.conns), len(s.listeners))
}
