package dhcp

import (
	"fmt"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/transport"
)

// ServerConfig configures a DHCP server.
type ServerConfig struct {
	// Pool is the subnet to allocate from.
	Pool ip.Prefix
	// FirstHost and LastHost bound the allocatable host indexes within the
	// pool (1-based, per ip.Prefix.Nth). Zero values cover the whole pool.
	FirstHost, LastHost int
	// Gateway is handed to clients as their default router.
	Gateway ip.Addr
	// ProcessingDelay models server think time per request.
	ProcessingDelay time.Duration
}

// ServerStats counts server activity.
type ServerStats struct {
	Discovers     uint64
	Offers        uint64
	Requests      uint64
	Acks          uint64
	Naks          uint64
	Releases      uint64
	Exhausted     uint64 // DISCOVERs dropped because the pool was empty
	DropMalformed uint64 // datagrams that failed to parse
}

type serverLease struct {
	hw      link.HWAddr
	expires sim.Time
	offered bool // offered but not yet acked
}

// leaseDuration is the lifetime of every lease the server grants.
const leaseDuration = 10 * time.Minute

// Server is a DHCP server answering on UDP port 67.
type Server struct {
	loop *sim.Loop
	ts   *transport.Stack
	cfg  ServerConfig

	leases map[ip.Addr]*serverLease
	byHW   map[link.HWAddr]ip.Addr
	// lastUse records when each address was last bound, implementing the
	// avoid-quick-reuse (LRU) policy.
	lastUse map[ip.Addr]sim.Time
	sock    *transport.UDPSocket
	stats   ServerStats
}

// NewServer starts a DHCP server on ts. It binds UDP port 67.
func NewServer(ts *transport.Stack, cfg ServerConfig) (*Server, error) {
	if cfg.FirstHost == 0 {
		cfg.FirstHost = 1
	}
	if cfg.LastHost == 0 {
		cfg.LastHost = cfg.Pool.HostCount()
	}
	s := &Server{
		loop:    ts.Host().Loop(),
		ts:      ts,
		cfg:     cfg,
		leases:  make(map[ip.Addr]*serverLease),
		byHW:    make(map[link.HWAddr]ip.Addr),
		lastUse: make(map[ip.Addr]sim.Time),
	}
	sock, err := ts.UDP(ip.Unspecified, ServerPort, s.input)
	if err != nil {
		return nil, fmt.Errorf("dhcp: binding server port: %w", err)
	}
	s.sock = sock
	return s, nil
}

// Stats returns a snapshot of the counters.
func (s *Server) Stats() ServerStats { return s.stats }

// LeaseFor returns the active lease address for a client, if any.
func (s *Server) LeaseFor(hw link.HWAddr) (ip.Addr, bool) {
	a, ok := s.byHW[hw]
	if !ok {
		return ip.Addr{}, false
	}
	l := s.leases[a]
	if l == nil || s.loop.Now() > l.expires {
		return ip.Addr{}, false
	}
	return a, true
}

func (s *Server) input(d transport.Datagram) {
	m, err := Unmarshal(d.Payload)
	if err != nil {
		s.stats.DropMalformed++
		return
	}
	handle := func() {
		switch m.Type {
		case Discover:
			s.handleDiscover(m, d)
		case Request:
			s.handleRequest(m, d)
		case Release:
			s.handleRelease(m)
		}
	}
	if s.cfg.ProcessingDelay > 0 {
		s.loop.Schedule(s.loop.Jitter(s.cfg.ProcessingDelay, s.cfg.ProcessingDelay/12), handle)
	} else {
		handle()
	}
}

func (s *Server) handleDiscover(m *Message, d transport.Datagram) {
	s.stats.Discovers++
	addr, ok := s.allocate(m.ClientHW)
	if !ok {
		s.stats.Exhausted++
		return
	}
	s.leases[addr] = &serverLease{hw: m.ClientHW, expires: s.loop.Now().Add(leaseDuration), offered: true}
	s.byHW[m.ClientHW] = addr
	s.stats.Offers++
	s.reply(d, &Message{
		Type:       Offer,
		XID:        m.XID,
		ClientHW:   m.ClientHW,
		YourAddr:   addr,
		ServerAddr: s.serverAddr(),
		PrefixBits: uint8(s.cfg.Pool.Bits),
		Gateway:    s.cfg.Gateway,
		LeaseSecs:  uint32(leaseDuration / time.Second),
	})
}

func (s *Server) handleRequest(m *Message, d transport.Datagram) {
	s.stats.Requests++
	want := m.RequestedAddr
	if want.IsUnspecified() {
		want = m.ClientAddr // renewal
	}
	l := s.leases[want]
	valid := l != nil && l.hw == m.ClientHW
	if !valid {
		s.stats.Naks++
		s.reply(d, &Message{Type: Nak, XID: m.XID, ClientHW: m.ClientHW, ServerAddr: s.serverAddr()})
		return
	}
	l.offered = false
	l.expires = s.loop.Now().Add(leaseDuration)
	s.lastUse[want] = s.loop.Now()
	s.stats.Acks++
	s.reply(d, &Message{
		Type:       Ack,
		XID:        m.XID,
		ClientHW:   m.ClientHW,
		YourAddr:   want,
		ServerAddr: s.serverAddr(),
		PrefixBits: uint8(s.cfg.Pool.Bits),
		Gateway:    s.cfg.Gateway,
		LeaseSecs:  uint32(leaseDuration / time.Second),
	})
}

func (s *Server) handleRelease(m *Message) {
	s.stats.Releases++
	if l, ok := s.leases[m.ClientAddr]; ok && l.hw == m.ClientHW {
		delete(s.leases, m.ClientAddr)
		delete(s.byHW, m.ClientHW)
		s.lastUse[m.ClientAddr] = s.loop.Now()
	}
}

// allocate picks an address for a client: its existing lease if fresh,
// otherwise the free address least recently used.
func (s *Server) allocate(hw link.HWAddr) (ip.Addr, bool) {
	if a, ok := s.byHW[hw]; ok {
		if l := s.leases[a]; l != nil && s.loop.Now() <= l.expires {
			return a, true
		}
	}
	var best ip.Addr
	bestAt := sim.Time(1<<62 - 1)
	found := false
	for n := s.cfg.FirstHost; n <= s.cfg.LastHost; n++ {
		a, err := s.cfg.Pool.Nth(n)
		if err != nil {
			break
		}
		if a == s.cfg.Gateway || a == s.serverAddr() {
			continue
		}
		if l, ok := s.leases[a]; ok && s.loop.Now() <= l.expires {
			continue // active
		}
		last, used := s.lastUse[a]
		if !used {
			return a, true // never used wins outright
		}
		if last < bestAt {
			best, bestAt, found = a, last, true
		}
	}
	return best, found
}

// serverAddr returns the server's address within the pool, used as the
// server identifier in replies.
func (s *Server) serverAddr() ip.Addr {
	for _, ifc := range s.ts.Host().Ifaces() {
		if !ifc.Addr().IsUnspecified() && s.cfg.Pool.Contains(ifc.Addr()) {
			return ifc.Addr()
		}
	}
	return ip.Addr{}
}

// reply sends a server message: broadcast on the arrival interface when the
// client has no usable address, unicast otherwise.
func (s *Server) reply(d transport.Datagram, m *Message) {
	if d.From.IsUnspecified() {
		s.sock.SendToVia(d.Iface, ip.Broadcast, ip.Broadcast, ClientPort, m.Marshal())
		return
	}
	s.sock.SendTo(d.From, ClientPort, m.Marshal())
}
