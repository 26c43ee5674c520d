package stack

import (
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/sim"
)

// PingResult reports the outcome of one echo exchange.
type PingResult struct {
	Seq      uint16
	From     ip.Addr
	RTT      time.Duration
	TimedOut bool
	// Unreachable is set when an ICMP error arrived instead of a reply,
	// with Code holding the unreachable code. A transit-filtered triangle
	// route never surfaces here: the filter sends no error, so the ping
	// times out.
	Unreachable bool
	Code        uint8
}

// ICMP is a host's ICMP endpoint. Echo requests addressed to the host are
// answered automatically — the paper's point that a mobile host must keep
// answering foreign-network management pings in its local role. Errors and
// echo replies are matched to outstanding Ping calls.
type ICMP struct {
	host  *Host
	idSeq uint16
	// pending lists the pings awaiting an answer, linked through
	// pingState.next. Most hosts never ping and the rest have one or two
	// out, so the table is the records themselves.
	pending *pingState

	// ErrorHook, if set, observes every ICMP error delivered to this host.
	// The mobile policy layer uses it to learn that a route choice (e.g.
	// the triangle route through a filtering router) is failing.
	ErrorHook func(m *ip.ICMP, from ip.Addr)

	// EchoStats counts echo requests answered.
	EchoRequests uint64

	// Sent and Received count all ICMP messages originated by and
	// delivered to this endpoint.
	Sent     uint64
	Received uint64
}

type pingState struct {
	key   uint32 // id<<16 | seq
	cb    func(PingResult)
	sent  sim.Time
	timer sim.Timer
	next  *pingState
}

func newICMP(h *Host) *ICMP {
	return &ICMP{host: h}
}

// take unlinks and returns the outstanding ping with key, or nil.
func (c *ICMP) take(key uint32) *pingState {
	for at := &c.pending; *at != nil; at = &(*at).next {
		if st := *at; st.key == key {
			*at, st.next = st.next, nil
			return st
		}
	}
	return nil
}

// remove unlinks st, reporting whether it was still out: a ping answered,
// refused or timed out is removed once.
func (c *ICMP) remove(st *pingState) bool {
	for at := &c.pending; *at != nil; at = &(*at).next {
		if *at == st {
			*at, st.next = st.next, nil
			return true
		}
	}
	return false
}

// input handles a locally delivered ICMP packet, which it is lent. A
// datagram that does not parse is the error it returns, and the demux
// drops it.
//
//mnet:ownership borrows pkt
func (c *ICMP) input(pkt *ip.Packet) error {
	m, err := ip.UnmarshalICMP(pkt.Payload)
	if err != nil {
		return err
	}
	c.Received++
	switch m.Type {
	case ip.ICMPEchoRequest:
		c.EchoRequests++
		reply := &ip.ICMP{Type: ip.ICMPEchoReply, ID: m.ID, Seq: m.Seq, Body: m.Body}
		// Reply from the address that was pinged, preserving the
		// requester's view; a bound source keeps this outside mobile IP
		// when the pinged address was a local (care-of) one.
		src := pkt.Dst
		if src.IsBroadcast() {
			src = ip.Unspecified // let routing pick for broadcast pings
		}
		c.Sent++
		c.host.Output(ip.NewICMPPacket(c.host.pkts, src, pkt.Src, reply))
	case ip.ICMPEchoReply:
		if st := c.take(uint32(m.ID)<<16 | uint32(m.Seq)); st != nil {
			st.timer.Stop()
			st.cb(PingResult{Seq: m.Seq, From: pkt.Src, RTT: c.host.loop.Now().Sub(st.sent)})
		}
	case ip.ICMPDestUnreach, ip.ICMPTimeExceeded:
		if c.ErrorHook != nil {
			c.ErrorHook(m, pkt.Src)
		}
		c.matchError(m, pkt.Src)
	case ip.ICMPRedirect:
		c.host.stats.RedirectsRcvd++
		if c.ErrorHook != nil {
			c.ErrorHook(m, pkt.Src)
		}
	}
	return nil
}

// matchError correlates an ICMP error with an outstanding ping by parsing
// the embedded offending header.
func (c *ICMP) matchError(m *ip.ICMP, from ip.Addr) {
	off, err := ip.Unmarshal(paddedHeader(m.Body))
	if err != nil || off.Protocol != ip.ProtoICMP {
		return
	}
	em, err := ip.UnmarshalICMPLoose(off.Payload)
	if err != nil || em.Type != ip.ICMPEchoRequest {
		return
	}
	if st := c.take(uint32(em.ID)<<16 | uint32(em.Seq)); st != nil {
		st.timer.Stop()
		st.cb(PingResult{Seq: em.Seq, From: from, Unreachable: true, Code: m.Code})
	}
}

// Ping sends an echo request to dst and invokes cb exactly once: with the
// reply, with an unreachable error, or with a timeout. bound, if not
// unspecified, is used as the source address (local-role pings). A nil cb
// is allowed (fire-and-forget).
func (c *ICMP) Ping(dst, bound ip.Addr, size int, timeout time.Duration, cb func(PingResult)) {
	if cb == nil {
		cb = func(PingResult) {}
	}
	c.idSeq++
	id := c.idSeq
	seq := uint16(1)
	key := uint32(id)<<16 | uint32(seq)
	st := &pingState{key: key, cb: cb, sent: c.host.loop.Now()}
	st.timer = c.host.loop.Schedule(timeout, func() {
		if c.remove(st) {
			cb(PingResult{Seq: seq, TimedOut: true})
		}
	})
	// A ping whose id has wrapped round onto one still out replaces it:
	// the older one is never answered, and its timer finds it gone.
	c.take(key)
	st.next, c.pending = c.pending, st
	m := &ip.ICMP{Type: ip.ICMPEchoRequest, ID: id, Seq: seq, Body: make([]byte, size)}
	c.Sent++
	if err := c.host.Output(ip.NewICMPPacket(c.host.pkts, bound, dst, m)); err != nil {
		if c.remove(st) {
			st.timer.Stop()
			cb(PingResult{Seq: seq, TimedOut: true})
		}
	}
}

// sendError sends an ICMP error about pkt back to its source, observing
// the usual suppressions (never about ICMP errors, broadcasts, unspecified
// sources, or a fragment other than the first: RFC 1122 §3.2.2).
func (c *ICMP) sendError(typ ip.ICMPType, code uint8, offender *ip.Packet) {
	if offender.Src.IsUnspecified() || offender.Src.IsBroadcast() || offender.Dst.IsBroadcast() || offender.FragOff != 0 {
		//lint:allow dropaccounting RFC 792/1122 suppression: only the error message is elided, the offender was accounted by the caller
		return
	}
	if offender.Protocol == ip.ProtoICMP {
		if m, err := ip.UnmarshalICMPLoose(offender.Payload); err == nil {
			if m.Type != ip.ICMPEchoRequest && m.Type != ip.ICMPEchoReply {
				//lint:allow dropaccounting never generate errors about ICMP errors; the offender was accounted by the caller
				return
			}
		}
	}
	msg := &ip.ICMP{Type: typ, Code: code, Body: ip.ICMPErrorBody(offender)}
	c.Sent++
	c.host.Output(ip.NewICMPPacket(c.host.pkts, ip.Unspecified, offender.Src, msg))
}

// sendRedirect tells pkt's source there is a better first hop for Dst.
func (c *ICMP) sendRedirect(pkt *ip.Packet, gateway ip.Addr) {
	c.host.stats.RedirectsSent++
	msg := &ip.ICMP{Type: ip.ICMPRedirect, Code: 1 /* host redirect */, Body: ip.ICMPErrorBody(pkt)}
	msg.SetGateway(gateway)
	c.Sent++
	c.host.Output(ip.NewICMPPacket(c.host.pkts, ip.Unspecified, pkt.Src, msg))
}

// paddedHeader fixes up a truncated ICMP error body (header + 8 bytes) so
// ip.Unmarshal's total-length check passes: the embedded header's declared
// total length usually exceeds the quoted bytes. The quoted payload bytes
// are preserved; the length field is clamped.
func paddedHeader(b []byte) []byte {
	if len(b) < ip.HeaderLen {
		return b
	}
	fixed := append([]byte(nil), b...)
	fixed[2] = byte(len(fixed) >> 8)
	fixed[3] = byte(len(fixed))
	// Recompute the header checksum for the clamped length.
	fixed[10], fixed[11] = 0, 0
	ck := ip.Checksum(fixed[:ip.HeaderLen])
	fixed[10] = byte(ck >> 8)
	fixed[11] = byte(ck)
	return fixed
}
