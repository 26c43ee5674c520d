package ip

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"strconv"
)

// Protocol is an IPv4 protocol number.
type Protocol uint8

// Protocol numbers used by the simulator. ProtoIPIP (4) is the IP-in-IP
// encapsulation carrying tunneled mobile-IP traffic.
const (
	ProtoICMP Protocol = 1
	ProtoIPIP Protocol = 4
	ProtoTCP  Protocol = 6
	ProtoUDP  Protocol = 17
)

// String names the protocols this stack speaks.
func (p Protocol) String() string {
	switch p {
	case ProtoICMP:
		return "icmp"
	case ProtoIPIP:
		return "ipip"
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	default:
		return "proto(" + strconv.Itoa(int(p)) + ")"
	}
}

// HeaderLen is the length of an IPv4 header without options. The simulator
// does not emit IP options, so this is also the encapsulation overhead of
// one IP-in-IP layer — the paper's "20 bytes or more".
const HeaderLen = 20

// MaxTotalLen is the largest total packet length representable.
const MaxTotalLen = 0xffff

// DefaultTTL is the initial TTL for locally originated packets.
const DefaultTTL = 64

// Header is a parsed IPv4 header. Fragmentation fields are carried so that
// headers round-trip, but the simulated media use MTUs large enough that
// the stack never fragments.
type Header struct {
	TOS      uint8
	ID       uint16
	DontFrag bool
	MoreFrag bool
	FragOff  uint16 // in 8-byte units
	TTL      uint8
	Protocol Protocol
	Src, Dst Addr
}

// Packet is an IPv4 packet: a header plus its payload. For IP-in-IP
// packets the payload is the marshaled inner packet.
//
// A packet has one owner at a time (pool.go, DESIGN §6 "who owns a
// packet"). The stack's constructors hand out pooled packets that own
// their payload buffer and go back to the pool through Release; a packet a
// caller builds as a literal is the garbage collector's, and Release on it
// does nothing.
type Packet struct {
	Header
	Payload []byte

	// Trace is the packet's lifecycle trace ID: simulator metadata, never
	// part of the wire format. Zero means unassigned; the stack assigns one
	// from sim.Loop.NextSerial when the packet is first injected, and every
	// layer (link frames, ARP queues, tunnel encapsulation) carries it so a
	// packet's hops can be replayed as one causal timeline.
	Trace uint64

	// buf is the bufpool buffer Payload is a window into, when the packet
	// owns one; pool is the loop's free lists it came from and goes back to
	// (nil for none); life is the pool's bookkeeping.
	buf  []byte
	pool *Pool
	life lifeState
}

// Len returns the marshaled length of the packet in bytes.
func (p *Packet) Len() int { return HeaderLen + len(p.Payload) }

// String summarizes the packet for traces.
func (p *Packet) String() string {
	var buf [64]byte
	b := append(buf[:0], p.Protocol.String()...)
	b = append(append(b, ' '), p.Src.String()...)
	b = append(append(b, "->"...), p.Dst.String()...)
	b = strconv.AppendUint(append(b, " ttl="...), uint64(p.TTL), 10)
	b = strconv.AppendInt(append(b, " len="...), int64(p.Len()), 10)
	return string(b)
}

// Clone returns a deep copy of the packet. The copy is a plain packet the
// garbage collector owns, whatever p is: it is how a handler or hook keeps
// a packet it was only lent.
func (p *Packet) Clone() *Packet {
	return &Packet{Header: p.Header, Payload: append([]byte(nil), p.Payload...), Trace: p.Trace}
}

// Marshal errors.
var (
	ErrTooLong      = errors.New("ip: packet exceeds maximum total length")
	ErrShortPacket  = errors.New("ip: truncated packet")
	ErrBadVersion   = errors.New("ip: not an IPv4 packet")
	ErrBadChecksum  = errors.New("ip: header checksum mismatch")
	ErrBadHeaderLen = errors.New("ip: bad header length")
)

// Marshal serializes the packet with a correct header checksum.
func (p *Packet) Marshal() ([]byte, error) {
	return p.MarshalInto(nil)
}

// MarshalInto serializes the packet into dst, which must be either nil
// (allocate, equivalent to Marshal) or a buffer of exactly Len() bytes
// (e.g. from bufpool.Get). It is the allocation-free form of Marshal for
// hot paths that own scratch buffers.
//
//mnet:ownership returns-alias dst
func (p *Packet) MarshalInto(dst []byte) ([]byte, error) {
	total := HeaderLen + len(p.Payload)
	if total > MaxTotalLen {
		return nil, ErrTooLong
	}
	b := dst
	if b == nil {
		b = make([]byte, total)
	} else if len(b) != total {
		panic("ip: MarshalInto buffer length mismatch")
	}
	p.putHeader(b, total)
	copy(b[HeaderLen:], p.Payload)
	return b, nil
}

// putHeader writes the header of a packet total bytes long into b[:HeaderLen].
func (p *Packet) putHeader(b []byte, total int) {
	b[0] = 4<<4 | HeaderLen/4 // version, IHL
	b[1] = p.TOS
	binary.BigEndian.PutUint16(b[2:], uint16(total))
	binary.BigEndian.PutUint16(b[4:], p.ID)
	flagsFrag := p.FragOff & 0x1fff
	if p.DontFrag {
		flagsFrag |= 0x4000
	}
	if p.MoreFrag {
		flagsFrag |= 0x2000
	}
	binary.BigEndian.PutUint16(b[6:], flagsFrag)
	b[8] = p.TTL
	b[9] = byte(p.Protocol)
	// The checksum is computed over the header with its own field zeroed;
	// recycled buffers carry stale bytes there, so zero it explicitly.
	b[10], b[11] = 0, 0
	copy(b[12:16], p.Src[:])
	copy(b[16:20], p.Dst[:])
	binary.BigEndian.PutUint16(b[10:], Checksum(b[:HeaderLen]))
}

// Unmarshal parses and validates an IPv4 packet: version, header length,
// total length, and header checksum. It is the plain parser, for observers
// (capture, an ICMP error's embedded header, tests): the packet and its
// payload copy are the garbage collector's, so b may be a pooled frame that
// is recycled while the packet is still held. The stack's receive path uses
// UnmarshalPooled.
func Unmarshal(b []byte) (*Packet, error) {
	p := new(Packet)
	body, err := p.Header.parse(b)
	if err != nil {
		return nil, err
	}
	p.Payload = append([]byte(nil), body...)
	return p, nil
}

// UnmarshalPooled is Unmarshal into a packet of pl that owns a pooled copy
// of the payload: what a device receiver makes of a frame, one per hop. The
// caller owns the result and hands it on (Host.Input) or releases it.
//
//mnet:ownership returns-pooled
func UnmarshalPooled(pl *Pool, b []byte) (*Packet, error) {
	var h Header
	body, err := h.parse(b)
	if err != nil {
		return nil, err
	}
	p := pl.acquire(len(body))
	p.Header = h
	copy(p.Payload, body)
	return p, nil
}

// parse validates the IPv4 header at the front of b, fills h from it and
// returns the payload as a window into b (nil when there is none).
func (h *Header) parse(b []byte) ([]byte, error) {
	if len(b) < HeaderLen {
		return nil, ErrShortPacket
	}
	if b[0]>>4 != 4 {
		return nil, ErrBadVersion
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl != HeaderLen { // options unsupported
		return nil, ErrBadHeaderLen
	}
	total := int(binary.BigEndian.Uint16(b[2:]))
	if total < ihl || total > len(b) {
		return nil, ErrShortPacket
	}
	if Checksum(b[:ihl]) != 0 {
		return nil, ErrBadChecksum
	}
	flagsFrag := binary.BigEndian.Uint16(b[6:])
	*h = Header{
		TOS:      b[1],
		ID:       binary.BigEndian.Uint16(b[4:]),
		DontFrag: flagsFrag&0x4000 != 0,
		MoreFrag: flagsFrag&0x2000 != 0,
		FragOff:  flagsFrag & 0x1fff,
		TTL:      b[8],
		Protocol: Protocol(b[9]),
	}
	copy(h.Src[:], b[12:16])
	copy(h.Dst[:], b[16:20])
	if total == ihl {
		return nil, nil
	}
	return b[ihl:total:total], nil
}

// Checksum computes the Internet checksum (RFC 1071) over b. Computing it
// over a block that embeds a correct checksum yields zero.
func Checksum(b []byte) uint16 {
	return ^uint16(sum(0, b))
}

// pseudoHeaderSum computes the partial sum of the TCP/UDP pseudo-header.
func pseudoHeaderSum(src, dst Addr, proto Protocol, length int) uint64 {
	var sum uint64
	sum += uint64(binary.BigEndian.Uint16(src[0:2]))
	sum += uint64(binary.BigEndian.Uint16(src[2:4]))
	sum += uint64(binary.BigEndian.Uint16(dst[0:2]))
	sum += uint64(binary.BigEndian.Uint16(dst[2:4]))
	sum += uint64(proto)
	sum += uint64(length)
	return sum
}

// transportChecksum computes the checksum over a pseudo-header plus
// segment, used by both UDP and TCP.
func transportChecksum(src, dst Addr, proto Protocol, seg []byte) uint16 {
	return ^uint16(sum(pseudoHeaderSum(src, dst, proto, len(seg)), seg))
}

// sum adds b, as big-endian 16-bit words, to the ones'-complement sum acc
// and returns the total folded to 16 bits. Since 2^16 is 1 modulo 2^16-1, a
// 64-bit word is worth its four 16-bit words, so the loop adds eight bytes
// at a time with end-around carry and folds once at the end (RFC 1071
// §2(B), §4); two accumulators keep the two carry chains independent.
func sum(acc uint64, b []byte) uint64 {
	var acc2, c, c2 uint64
	for len(b) >= 32 {
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(b), c)
		acc2, c2 = bits.Add64(acc2, binary.BigEndian.Uint64(b[8:]), c2)
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(b[16:]), c)
		acc2, c2 = bits.Add64(acc2, binary.BigEndian.Uint64(b[24:]), c2)
		b = b[32:]
	}
	acc, c = bits.Add64(acc, acc2, c)
	acc, c = bits.Add64(acc, c2, c)
	for len(b) >= 8 {
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(b), c)
		b = b[8:]
	}
	if len(b) >= 4 {
		acc, c = bits.Add64(acc, uint64(binary.BigEndian.Uint32(b)), c)
		b = b[4:]
	}
	if len(b) >= 2 {
		acc, c = bits.Add64(acc, uint64(binary.BigEndian.Uint16(b)), c)
		b = b[2:]
	}
	if len(b) == 1 {
		acc, c = bits.Add64(acc, uint64(b[0])<<8, c)
	}
	acc, c = bits.Add64(acc, c, 0)
	acc += c // a carry out of that last add leaves acc zero
	for acc>>16 != 0 {
		acc = acc&0xffff + acc>>16
	}
	return acc
}

// Encapsulate wraps inner in an outer IP-in-IP header addressed
// outerSrc -> outerDst. This is the operation the paper's VIF performs: the
// result is a normal IP packet whose payload is the marshaled inner packet.
// The outer is a packet of inner's pool that the caller owns, the inner
// marshaled straight into its buffer; inner is only read, and stays its
// owner's to release.
//
//mnet:ownership returns-pooled
func Encapsulate(outerSrc, outerDst Addr, ttl uint8, id uint16, inner *Packet) (*Packet, error) {
	if HeaderLen+inner.Len() > MaxTotalLen {
		return nil, ErrTooLong
	}
	outer := inner.pool.acquire(inner.Len())
	outer.Header = Header{
		ID:       id,
		TTL:      ttl,
		Protocol: ProtoIPIP,
		Src:      outerSrc,
		Dst:      outerDst,
	}
	outer.Trace = inner.Trace
	if _, err := inner.MarshalInto(outer.Payload); err != nil {
		outer.Release()
		return nil, err
	}
	return outer, nil
}

// ErrNotEncapsulated is returned by Decapsulate for non-IPIP packets.
var ErrNotEncapsulated = errors.New("ip: packet is not IP-in-IP")

// Decapsulate unwraps one layer of IP-in-IP encapsulation, validating the
// inner packet, and returns the inner packet. This is the receive half of
// the paper's fused VIF/IPIP module. The inner payload is a window into
// p.Payload, not a copy: a payload is immutable once its packet exists.
//
// Decapsulate consumes p, error or not: the inner packet, a packet of p's
// pool, takes over the buffer p owned (its payload stays a window into it)
// and p goes back to that pool, so the caller reads what it wants of the
// outer header first. A plain p owns no buffer and is left as it was; the
// garbage collector keeps its payload alive under the inner's window.
//
//mnet:ownership takes p
//mnet:ownership returns-pooled
func Decapsulate(p *Packet) (*Packet, error) {
	if p.Protocol != ProtoIPIP {
		p.Release()
		return nil, ErrNotEncapsulated
	}
	var h Header
	body, err := h.parse(p.Payload)
	if err != nil {
		p.Release()
		return nil, err
	}
	inner := p.pool.acquire(0)
	inner.Header, inner.Payload, inner.Trace = h, body, p.Trace
	inner.adoptBuffer(p)
	p.Release()
	return inner, nil
}

// adoptBuffer moves the buffer from owns under p, whose payload is a window
// into it: from is released without it, p releases it in the end.
func (p *Packet) adoptBuffer(from *Packet) {
	p.buf, from.buf = from.buf, nil
}
