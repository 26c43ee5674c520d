package transport

import (
	"fmt"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/stack"
)

// Stream parameters. There is no congestion control: the paper's
// experiments are about handoff disruption, not bulk-transfer dynamics,
// and a fixed window keeps behaviour analyzable. Retransmission and RTT
// estimation follow the usual (Jacobson/Karn) rules so streams survive the
// loss bursts a handoff causes.
const (
	MSS            = 1000
	recvWindow     = 16384
	initialRTO     = time.Second
	minRTO         = 300 * time.Millisecond
	maxRTO         = 60 * time.Second
	maxSynRetries  = 6
	maxDataRetries = 10
	oooLimit       = 64 // out-of-order segments buffered per connection

	// rtoLaneGranularity buckets RTO timers; tiny against minRTO (300ms).
	rtoLaneGranularity = time.Millisecond
)

// ConnState is a stream connection's state.
type ConnState int

// Connection states (a condensed TCP state machine: FinSent covers
// FIN-WAIT-1/LAST-ACK, and remote closure is tracked separately).
const (
	StateSynSent ConnState = iota
	StateSynRcvd
	StateEstablished
	StateFinSent
	StateClosed
)

func (s ConnState) String() string {
	switch s {
	case StateSynSent:
		return "syn-sent"
	case StateSynRcvd:
		return "syn-rcvd"
	case StateEstablished:
		return "established"
	case StateFinSent:
		return "fin-sent"
	case StateClosed:
		return "closed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// ConnStats counts a connection's activity.
type ConnStats struct {
	BytesSent     uint64 // payload bytes transmitted (including retransmits)
	BytesAcked    uint64
	BytesReceived uint64
	Retransmits   uint64
	DupAcksSent   uint64
	ZeroWndProbes uint64 // persist-timer probes sent against a closed peer window
	SendBufPeak   int    // high-water mark of Buffered: the backlog of a producer outrunning the link
}

// Conn is a reliable byte-stream connection. Callbacks fire from the
// simulation loop; install them before traffic can arrive.
type Conn struct {
	stk   *Stack
	key   connKey
	state ConnState

	// Callbacks. OnData lends chunk, the in-order received payload, for the
	// duration of the call: it is a window into the arriving packet, so a
	// consumer that keeps bytes copies them (append(dst, chunk...) or
	// Write(chunk)).
	//
	//mnet:ownership borrows chunk
	OnData        func(chunk []byte)
	OnEstablished func()
	OnRemoteClose func()
	OnError       func(error)

	// Send state.
	iss      uint32
	sndUna   uint32 // oldest unacknowledged sequence
	sndNxt   uint32 // next sequence to send
	peerWnd  uint16
	snd      sendRing // unacked + unsent bytes, oldest at sndUna
	sndInUse int      // bytes of snd already transmitted (unacked)
	closing  bool     // Close() called; send FIN once buffer drains
	finSent  bool
	finAcked bool

	// Receive state. ooo holds out-of-order segments awaiting the gap to
	// fill (bounded by oooLimit entries).
	rcvNxt       uint32
	remoteClosed bool
	ooo          map[uint32][]byte

	// Fast retransmit: three duplicate ACKs for sndUna trigger an
	// immediate retransmission without waiting out the RTO.
	dupAcks int

	// recovering marks a timeout-recovery episode: after an RTO
	// retransmission, each ACK that advances sndUna immediately
	// retransmits the next outstanding segment (ACK-clocked go-back-N)
	// instead of waiting out the backed-off RTO again. A handoff blackout
	// can lose a whole window; without this, recovery would crawl at one
	// segment per RTO.
	recovering bool

	// Persist timer (zero-window probing). When the peer advertises a
	// zero window with data queued and nothing in flight, the RTO timer
	// never arms — nothing is outstanding — so without probing the
	// connection would deadlock forever: the window-update ACK that
	// reopens the window carries no data and is sent unreliably. The
	// persist timer sends a one-byte probe below sndUna (front-trimmed by
	// the receiver as a pure duplicate) to elicit an ACK carrying the
	// current window, backing off like an RTO but never giving up, per
	// the classic TCP persist behaviour.
	persistTimer   sim.LaneTimer
	persistBackoff time.Duration

	// advWnd is the receive window advertised on outgoing segments. It
	// defaults to recvWindow; an application throttling its consumption
	// (or a test modelling a stalled reader) lowers it with
	// SetAdvertisedWindow, possibly to zero.
	advWnd uint16

	// Retransmission. The RTO timer lives on a bucketed lane: it is
	// re-armed on every ACK and almost never fires, so sharing heap
	// events across connections keeps the per-ACK cost flat; the
	// sub-millisecond rounding is noise against RTOs of hundreds of ms.
	rtxTimer   sim.LaneTimer
	rto        time.Duration
	srtt       time.Duration
	rttvar     time.Duration
	retries    int
	sampleSeq  uint32   // sequence whose RTT is being timed
	sampleTime sim.Time // send time of sampleSeq
	sampling   bool

	// The timer callbacks, bound once: a method value allocates each time
	// it is evaluated, and armTimer runs on every ACK.
	retransmitFn, zeroWndProbeFn func()

	stats ConnStats
}

// Listener accepts incoming stream connections on a bound address/port.
type Listener struct {
	stk      *Stack
	key      bindKey
	onAccept func(*Conn)
	closed   bool
}

// Listen binds a listener. A zero bound address accepts connections to any
// local address, including the home address on a mobile host.
func (s *Stack) Listen(bound ip.Addr, port uint16, onAccept func(*Conn)) (*Listener, error) {
	k := bindKey{bound, port}
	if s.listeners[k] != nil {
		return nil, ErrPortInUse
	}
	l := &Listener{stk: s, key: k, onAccept: onAccept}
	if s.listeners == nil { // lazy: most fleet hosts never listen
		s.listeners = make(map[bindKey]*Listener)
	}
	s.listeners[k] = l
	return l, nil
}

// Close stops accepting new connections (existing ones are unaffected).
func (l *Listener) Close() {
	if !l.closed {
		l.closed = true
		delete(l.stk.listeners, l.key)
	}
}

// Connect opens a connection to (dst, dport), bound locally to bound (or
// the route lookup's recommended source when unspecified — the home
// address on a mobile host, making the connection move-proof). The lookup
// is the transport-layer call into ip_rt_route() the paper describes; each
// segment is routed afresh by Output.
func (s *Stack) Connect(bound, dst ip.Addr, dport uint16) (*Conn, error) {
	dec, err := s.host.RouteLookup(dst, bound)
	if err != nil {
		return nil, err
	}
	src := bound
	if src.IsUnspecified() {
		src = dec.Src
	}
	lport, err := s.ephemeralPort(src)
	if err != nil {
		return nil, err
	}
	c := s.newConn(connKey{laddr: src, lport: lport, raddr: dst, rport: dport}, StateSynSent, recvWindow)
	c.sendSegment(ip.TCPSyn, c.iss, 0, nil)
	c.armTimer()
	return c, nil
}

// newConn builds a connection in its handshake state and enters it in the
// connection table.
func (s *Stack) newConn(key connKey, state ConnState, peerWnd uint16) *Conn {
	c := &Conn{
		stk:     s,
		key:     key,
		state:   state,
		iss:     s.loop.Rand().Uint32(),
		rto:     initialRTO,
		peerWnd: peerWnd,
		advWnd:  recvWindow,
	}
	c.sndUna = c.iss
	c.sndNxt = c.iss + 1 // SYN consumes one sequence number
	c.retransmitFn, c.zeroWndProbeFn = c.retransmit, c.zeroWndProbe
	if s.conns == nil {
		s.conns = make(map[connKey]*Conn)
	}
	s.conns[key] = c
	return c
}

// State returns the connection state.
func (c *Conn) State() ConnState { return c.state }

// Established reports whether the handshake completed.
func (c *Conn) Established() bool { return c.state == StateEstablished || c.state == StateFinSent }

// Stats returns a snapshot of the counters.
func (c *Conn) Stats() ConnStats { return c.stats }

// LocalAddr returns the connection's local (bound) address and port.
func (c *Conn) LocalAddr() (ip.Addr, uint16) { return c.key.laddr, c.key.lport }

// RemoteAddr returns the peer address and port.
func (c *Conn) RemoteAddr() (ip.Addr, uint16) { return c.key.raddr, c.key.rport }

// Unacked returns the number of bytes sent but not yet acknowledged.
func (c *Conn) Unacked() int { return c.sndInUse }

// Buffered returns the number of bytes written but not yet acknowledged,
// sent or not.
func (c *Conn) Buffered() int { return c.snd.n }

// Write queues data for reliable delivery. It copies data and never
// refuses a live connection: the caller may reuse data at once, and the
// backlog of a producer outrunning the link shows in Buffered and
// ConnStats.SendBufPeak.
func (c *Conn) Write(data []byte) error {
	if c.state == StateClosed {
		return ErrClosed
	}
	if c.closing {
		return ErrClosed
	}
	c.snd.write(data)
	if c.snd.n > c.stats.SendBufPeak {
		c.stats.SendBufPeak = c.snd.n
	}
	c.trySend()
	return nil
}

// Close initiates an orderly shutdown: buffered data is delivered first,
// then a FIN.
func (c *Conn) Close() {
	if c.state == StateClosed || c.closing {
		return
	}
	c.closing = true
	c.trySend()
}

// Abort drops the connection immediately, sending a RST.
func (c *Conn) Abort() {
	if c.state == StateClosed {
		return
	}
	c.sendSegment(ip.TCPRst, c.sndNxt, c.rcvNxt, nil)
	c.teardown(nil)
}

// teardown closes the connection and cancels both timers. Every path out
// of the connection table funnels through here, so a closed conn can never
// fire a stale retransmission or persist probe.
func (c *Conn) teardown(err error) {
	if c.state == StateClosed {
		return
	}
	c.state = StateClosed
	c.rtxTimer.Stop()
	c.persistTimer.Stop()
	delete(c.stk.conns, c.key)
	if err != nil && c.OnError != nil {
		c.OnError(err)
	}
}

// trySend transmits as much as the peer window allows, plus a FIN when
// closing with an empty buffer.
func (c *Conn) trySend() {
	if c.state != StateEstablished && c.state != StateFinSent {
		return
	}
	for c.sndInUse < c.snd.n {
		inflight := int(c.sndNxt - c.sndUna)
		if inflight >= int(c.peerWnd) {
			break
		}
		n := c.snd.n - c.sndInUse
		if n > MSS {
			n = MSS
		}
		if n > int(c.peerWnd)-inflight {
			n = int(c.peerWnd) - inflight
		}
		if n <= 0 {
			break
		}
		seq := c.sndNxt
		c.sendData(seq, c.sndInUse, n)
		if !c.sampling {
			c.sampling = true
			c.sampleSeq = seq
			c.sampleTime = c.stk.loop.Now()
		}
		c.sndNxt += uint32(n)
		c.sndInUse += n
	}
	if c.closing && c.sndInUse == c.snd.n && !c.finSent && c.state == StateEstablished {
		c.finSent = true
		c.state = StateFinSent
		c.sendSegment(ip.TCPFin|ip.TCPAck, c.sndNxt, c.rcvNxt, nil)
		c.sndNxt++ // FIN consumes a sequence number
	}
	c.armTimer()
	// Zero-window deadlock guard: data is queued, nothing is in flight (so
	// the RTO timer stays unarmed), and the peer window is closed. Probe
	// until an ACK reopens it.
	if c.peerWnd == 0 && c.sndInUse < c.snd.n && c.sndNxt == c.sndUna &&
		!c.persistTimer.Active() {
		c.armPersist()
	}
}

// SetAdvertisedWindow changes the receive window stamped on this side's
// outgoing segments — the backpressure hook for an application that has
// stopped consuming. It takes effect on the next segment sent; a peer
// staring at a zero window rediscovers the reopened window through its
// persist probes.
func (c *Conn) SetAdvertisedWindow(w uint16) { c.advWnd = w }

// armPersist starts the persist timer. The first probe waits out the
// current RTO; subsequent probes back off exponentially to maxRTO and
// never give up — a zero window is flow control, not failure.
func (c *Conn) armPersist() {
	if c.persistBackoff == 0 {
		c.persistBackoff = c.rto
		if c.persistBackoff < minRTO {
			c.persistBackoff = minRTO
		}
	}
	c.persistTimer = c.stk.loop.Lane(rtoLaneGranularity).Schedule(c.persistBackoff, c.zeroWndProbeFn)
}

// zeroWndProbe sends one byte just below sndUna. The receiver front-trims
// it as a pure duplicate and answers with an ACK carrying its current
// window; segment()'s window-open path then resumes transmission.
func (c *Conn) zeroWndProbe() {
	if c.state != StateEstablished && c.state != StateFinSent {
		return
	}
	if c.peerWnd != 0 || c.sndInUse >= c.snd.n || c.sndNxt != c.sndUna {
		return
	}
	c.stats.ZeroWndProbes++
	var probe [1]byte
	c.sendSegment(ip.TCPAck, c.sndUna-1, c.rcvNxt, probe[:])
	c.persistBackoff *= 2
	if c.persistBackoff > maxRTO {
		c.persistBackoff = maxRTO
	}
	c.armPersist()
}

func (c *Conn) sendSegment(flags uint8, seq, ack uint32, payload []byte) {
	h := ip.TCPHeader{
		SrcPort: c.key.lport,
		DstPort: c.key.rport,
		Seq:     seq,
		Ack:     ack,
		Flags:   flags,
		Window:  c.advWnd,
	}
	c.stk.host.Output(ip.NewTCPPacket(c.stk.host.Packets(), c.key.laddr, c.key.raddr, h, payload))
}

// armTimer (re)starts the retransmission timer if anything is in flight.
func (c *Conn) armTimer() {
	c.rtxTimer.Stop()
	inflight := c.sndNxt != c.sndUna
	if !inflight || c.state == StateClosed {
		return
	}
	c.rtxTimer = c.stk.loop.Lane(rtoLaneGranularity).Schedule(c.rto, c.retransmitFn)
}

func (c *Conn) retransmit() {
	c.retries++
	limit := maxDataRetries
	if c.state == StateSynSent || c.state == StateSynRcvd {
		limit = maxSynRetries
	}
	if c.retries > limit {
		c.teardown(ErrConnTimeout)
		return
	}
	c.stats.Retransmits++
	c.sampling = false // Karn: no RTT samples across retransmits
	switch c.state {
	case StateSynSent:
		c.sendSegment(ip.TCPSyn, c.iss, 0, nil)
	case StateSynRcvd:
		c.sendSegment(ip.TCPSyn|ip.TCPAck, c.iss, c.rcvNxt, nil)
	default:
		if c.sndInUse > 0 {
			c.recovering = true
			c.resendHead()
		} else if c.finSent && !c.finAcked {
			c.sendSegment(ip.TCPFin|ip.TCPAck, c.sndNxt-1, c.rcvNxt, nil)
		}
	}
	c.rto *= 2
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
	c.armTimer()
}

// updateRTT feeds a round-trip sample into the Jacobson estimator.
func (c *Conn) updateRTT(sample time.Duration) {
	if c.srtt == 0 {
		c.srtt = sample
		c.rttvar = sample / 2
	} else {
		delta := sample - c.srtt
		if delta < 0 {
			delta = -delta
		}
		c.rttvar = (3*c.rttvar + delta) / 4
		c.srtt = (7*c.srtt + sample) / 8
	}
	c.rto = c.srtt + 4*c.rttvar
	if c.rto < minRTO {
		c.rto = minRTO
	}
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
	c.retries = 0
}

// RTO returns the current retransmission timeout (for tests and traces).
func (c *Conn) RTO() time.Duration { return c.rto }

// tcpInput demultiplexes a received TCP segment.
func (s *Stack) tcpInput(ifc *stack.Iface, pkt *ip.Packet) {
	h, payload, err := ip.UnmarshalTCP(pkt.Src, pkt.Dst, pkt.Payload)
	if err != nil {
		s.stats.TCPBadChecksum++
		return
	}
	s.stats.TCPSegments++
	key := connKey{laddr: pkt.Dst, lport: h.DstPort, raddr: pkt.Src, rport: h.SrcPort}
	if c, ok := s.conns[key]; ok {
		c.segment(h, payload)
		//lint:allow dropaccounting segment delivered to the connection state machine, not dropped
		return
	}
	// New connection to a listener?
	if h.Flags&ip.TCPSyn != 0 && h.Flags&ip.TCPAck == 0 {
		l := s.listeners[bindKey{pkt.Dst, h.DstPort}]
		if l == nil {
			l = s.listeners[bindKey{ip.Unspecified, h.DstPort}]
		}
		if l != nil {
			c := s.newConn(key, StateSynRcvd, h.Window)
			c.rcvNxt = h.Seq + 1
			if l.onAccept != nil {
				l.onAccept(c)
			}
			c.sendSegment(ip.TCPSyn|ip.TCPAck, c.iss, c.rcvNxt, nil)
			c.armTimer()
			return
		}
	}
	s.stats.TCPNoConn++
	if h.Flags&ip.TCPRst == 0 {
		// Refuse with a RST addressed from the targeted address, shaped
		// per RFC 793 §3.4: a segment carrying an ACK is refused with
		// <SEQ=SEG.ACK><CTL=RST> (the peer validates the RST against its
		// own send sequence, so no ACK rides along); a segment without an
		// ACK — a bare SYN, or stray data to a closed port — is refused
		// with <SEQ=0><ACK=SEG.SEQ+SEG.LEN><CTL=RST,ACK>, where SEG.LEN
		// counts the SYN/FIN sequence slots. The old code stamped
		// Seq: h.Ack unconditionally, which for ACK-less segments is a
		// zero Seq on an ACK-flagged RST acknowledging the wrong edge.
		rst := ip.TCPHeader{SrcPort: h.DstPort, DstPort: h.SrcPort}
		if h.Flags&ip.TCPAck != 0 {
			rst.Seq = h.Ack
			rst.Flags = ip.TCPRst
		} else {
			segLen := uint32(len(payload))
			if h.Flags&ip.TCPSyn != 0 {
				segLen++
			}
			if h.Flags&ip.TCPFin != 0 {
				segLen++
			}
			rst.Ack = h.Seq + segLen
			rst.Flags = ip.TCPRst | ip.TCPAck
		}
		s.host.Output(ip.NewTCPPacket(s.host.Packets(), pkt.Dst, pkt.Src, rst, nil))
	}
}

// segment runs the per-connection state machine on an arriving segment.
func (c *Conn) segment(h ip.TCPHeader, payload []byte) {
	if h.Flags&ip.TCPRst != 0 {
		c.teardown(ErrConnReset)
		return
	}
	windowOpened := c.peerWnd == 0 && h.Window != 0
	c.peerWnd = h.Window
	if windowOpened {
		// The peer's window reopened (via a probe's ACK or any other
		// segment): cancel persist probing and resume at the end of
		// segment processing, once the ACK and data paths have run.
		c.persistBackoff = 0
		c.persistTimer.Stop()
		defer func() {
			if c.state == StateEstablished || c.state == StateFinSent {
				c.trySend()
			}
		}()
	}
	finSeq := h.Seq + uint32(len(payload)) // where a FIN flag would sit

	switch c.state {
	case StateSynSent:
		if h.Flags&(ip.TCPSyn|ip.TCPAck) == ip.TCPSyn|ip.TCPAck && h.Ack == c.sndNxt {
			c.rcvNxt = h.Seq + 1
			c.sndUna = h.Ack
			c.state = StateEstablished
			c.retries = 0
			c.rtxTimer.Stop()
			c.sendSegment(ip.TCPAck, c.sndNxt, c.rcvNxt, nil)
			if c.OnEstablished != nil {
				c.OnEstablished()
			}
			c.trySend()
		}
		return
	case StateSynRcvd:
		if h.Flags&ip.TCPAck != 0 && h.Ack == c.sndNxt {
			c.sndUna = h.Ack
			c.state = StateEstablished
			c.retries = 0
			c.armTimer()
			if c.OnEstablished != nil {
				c.OnEstablished()
			}
		}
		// Fall through to process any data riding on the ACK.
	case StateClosed:
		return
	}
	if c.state == StateSynRcvd {
		return // handshake ACK not yet seen
	}

	// A retransmitted SYN-ACK means our handshake ACK was lost: repeat it.
	if h.Flags&ip.TCPSyn != 0 {
		c.sendACK()
		return
	}

	// ACK processing.
	if h.Flags&ip.TCPAck != 0 && h.Ack == c.sndUna && c.sndNxt != c.sndUna && len(payload) == 0 {
		// Duplicate ACK while data is outstanding.
		c.dupAcks++
		if c.dupAcks == 3 && c.sndInUse > 0 {
			c.stats.Retransmits++
			c.sampling = false
			c.resendHead()
		}
	}
	if h.Flags&ip.TCPAck != 0 && ip.SeqLess(c.sndUna, h.Ack) && ip.SeqLEQ(h.Ack, c.sndNxt) {
		c.dupAcks = 0
		acked := h.Ack - c.sndUna
		dataAcked := int(acked)
		if c.finSent && h.Ack == c.sndNxt {
			c.finAcked = true
			dataAcked-- // the FIN's sequence slot carries no data
		}
		if dataAcked > 0 {
			if dataAcked > c.sndInUse {
				dataAcked = c.sndInUse
			}
			c.snd.discard(dataAcked)
			c.sndInUse -= dataAcked
			c.stats.BytesAcked += uint64(dataAcked)
		}
		c.sndUna = h.Ack
		if c.sampling && ip.SeqLess(c.sampleSeq, h.Ack) {
			c.sampling = false
			c.updateRTT(c.stk.loop.Now().Sub(c.sampleTime))
		}
		c.retries = 0
		if c.recovering {
			if c.sndInUse > 0 {
				// ACK-clocked recovery: the cumulative ACK tells us the
				// next outstanding segment is still missing; resend it now.
				c.stats.Retransmits++
				c.resendHead()
			} else {
				c.recovering = false
			}
		}
		c.armTimer()
		c.trySend()
	}

	// In-order data processing, with front-trim of partial duplicates.
	if len(payload) > 0 {
		if ip.SeqLess(h.Seq, c.rcvNxt) {
			overlap := c.rcvNxt - h.Seq
			if int(overlap) >= len(payload) {
				c.sendACK() // pure duplicate
				c.stats.DupAcksSent++
				payload = nil
			} else {
				payload = payload[overlap:]
				h.Seq = c.rcvNxt
			}
		}
		if len(payload) > 0 {
			if h.Seq == c.rcvNxt {
				c.consume(payload)
				c.drainOOO()
				c.sendACK()
			} else {
				// Out of order: buffer it and send a duplicate ACK so the
				// peer can fast-retransmit the gap.
				if c.ooo == nil {
					c.ooo = make(map[uint32][]byte)
				}
				if len(c.ooo) < oooLimit {
					c.ooo[h.Seq] = append([]byte(nil), payload...)
				}
				c.sendACK()
				c.stats.DupAcksSent++
			}
		}
	}

	// FIN processing (only when it arrives in order).
	if h.Flags&ip.TCPFin != 0 && finSeq == c.rcvNxt && !c.remoteClosed {
		c.rcvNxt++
		c.remoteClosed = true
		c.sendACK()
		if c.OnRemoteClose != nil {
			c.OnRemoteClose()
		}
		if !c.closing {
			c.Close() // echo the close (no half-open lingering)
		}
	}
	if c.remoteClosed && c.finSent && c.finAcked {
		c.teardown(nil)
	}
}

func (c *Conn) sendACK() {
	c.sendSegment(ip.TCPAck, c.sndNxt, c.rcvNxt, nil)
}

// resendHead retransmits the first outstanding segment.
func (c *Conn) resendHead() {
	n := c.sndInUse
	if n > MSS {
		n = MSS
	}
	c.sendData(c.sndUna, 0, n)
}

// sendData transmits the n buffered bytes at offset off as one segment. A
// run that wraps around the ring is made contiguous in a scratch first;
// NewTCPPacket copies the payload before sendSegment returns, so the scratch
// stays on the stack.
func (c *Conn) sendData(seq uint32, off, n int) {
	seg, wrapped := c.snd.peek(off, n)
	if len(wrapped) > 0 {
		var scratch [MSS]byte
		seg = append(append(scratch[:0], seg...), wrapped...)
	}
	c.sendSegment(ip.TCPAck|ip.TCPPsh, seq, c.rcvNxt, seg)
	c.stats.BytesSent += uint64(n)
}

// consume delivers in-order payload to the application.
func (c *Conn) consume(payload []byte) {
	c.rcvNxt += uint32(len(payload))
	c.stats.BytesReceived += uint64(len(payload))
	if c.OnData != nil {
		c.OnData(payload)
	}
}

// drainOOO delivers any buffered segments that have become contiguous.
func (c *Conn) drainOOO() {
	for len(c.ooo) > 0 {
		seg, ok := c.ooo[c.rcvNxt]
		if ok {
			delete(c.ooo, c.rcvNxt)
			c.consume(seg)
			continue
		}
		// Discard stale (already-covered) buffered segments.
		progressed := false
		for seq, seg := range c.ooo {
			if ip.SeqLEQ(seq+uint32(len(seg)), c.rcvNxt) {
				delete(c.ooo, seq)
				progressed = true
			} else if ip.SeqLess(seq, c.rcvNxt) {
				// Partial overlap: trim and retry.
				delete(c.ooo, seq)
				c.ooo[c.rcvNxt] = seg[c.rcvNxt-seq:]
				progressed = true
			}
		}
		if !progressed {
			return
		}
	}
}
