package ip

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ICMPType is an ICMP message type.
type ICMPType uint8

// ICMP types the simulator generates and consumes. Echo is the substrate
// for "ping", which the paper uses both as a measurement tool and as the
// probe for detecting routers that drop triangle-route (transit) traffic.
const (
	ICMPEchoReply      ICMPType = 0
	ICMPDestUnreach    ICMPType = 3
	ICMPEchoRequest    ICMPType = 8
	ICMPRedirect       ICMPType = 5
	ICMPTimeExceeded   ICMPType = 11
	ICMPParamProblem   ICMPType = 12
	ICMPTimestamp      ICMPType = 13
	ICMPTimestampReply ICMPType = 14
)

// Destination-unreachable codes.
const (
	CodeNetUnreach       = 0
	CodeHostUnreach      = 1
	CodeProtoUnreach     = 2
	CodePortUnreach      = 3
	CodeFragNeeded       = 4  // fragmentation needed and DF set (path-MTU discovery)
	CodeAdminProhibited  = 13 // communication administratively prohibited (RFC 1812)
	CodeSrcRouteFailed   = 5
	CodeNetUnknown       = 6
	CodeHostUnknown      = 7
	CodeCommProhibited   = 11
	CodePrecedenceCutoff = 15
)

func (t ICMPType) String() string {
	switch t {
	case ICMPEchoReply:
		return "echo-reply"
	case ICMPDestUnreach:
		return "dest-unreachable"
	case ICMPEchoRequest:
		return "echo-request"
	case ICMPRedirect:
		return "redirect"
	case ICMPTimeExceeded:
		return "time-exceeded"
	default:
		return fmt.Sprintf("icmp(%d)", uint8(t))
	}
}

// ICMPHeaderLen is the length of the fixed ICMP header.
const ICMPHeaderLen = 8

// ICMP is a parsed ICMP message. The second header word is interpreted per
// type: ID/Seq for echo, gateway address for redirects, unused for
// unreachables (whose Body then carries the offending header).
type ICMP struct {
	Type ICMPType
	Code uint8
	ID   uint16 // echo: identifier; redirect: high half of gateway
	Seq  uint16 // echo: sequence;   redirect: low half of gateway
	Body []byte
}

// Gateway returns the redirect gateway address encoded in ID/Seq.
func (m *ICMP) Gateway() Addr {
	return AddrFromUint32(uint32(m.ID)<<16 | uint32(m.Seq))
}

// SetGateway encodes a redirect gateway address into ID/Seq.
func (m *ICMP) SetGateway(a Addr) {
	v := a.Uint32()
	m.ID = uint16(v >> 16)
	m.Seq = uint16(v)
}

// ICMP parse errors.
var (
	ErrShortICMP       = errors.New("ip: truncated ICMP message")
	ErrBadICMPChecksum = errors.New("ip: ICMP checksum mismatch")
)

// MarshalICMP serializes an ICMP message with a correct checksum.
func MarshalICMP(m *ICMP) []byte {
	b := make([]byte, m.Len())
	marshalICMPInto(b, m)
	return b
}

// Len returns the marshaled length of the message in bytes.
func (m *ICMP) Len() int { return ICMPHeaderLen + len(m.Body) }

// marshalICMPInto is MarshalICMP into b, which must be exactly m.Len()
// bytes and may hold anything: every byte is written, the checksum field
// zeroed before the sum is taken over it.
func marshalICMPInto(b []byte, m *ICMP) {
	if len(b) != m.Len() {
		panic("ip: marshalICMPInto buffer length mismatch")
	}
	b[0] = byte(m.Type)
	b[1] = m.Code
	b[2], b[3] = 0, 0
	binary.BigEndian.PutUint16(b[4:], m.ID)
	binary.BigEndian.PutUint16(b[6:], m.Seq)
	copy(b[ICMPHeaderLen:], m.Body)
	binary.BigEndian.PutUint16(b[2:], Checksum(b))
}

// NewICMPPacket returns a pooled packet src -> dst carrying the message,
// marshaled straight into the packet's own buffer. The caller owns it and
// hands it to Host.Output, or releases it.
//
//mnet:ownership returns-pooled
func NewICMPPacket(src, dst Addr, m *ICMP) *Packet {
	p := acquire(m.Len())
	p.Header = Header{Protocol: ProtoICMP, Src: src, Dst: dst}
	marshalICMPInto(p.Payload, m)
	return p
}

// UnmarshalICMP parses and validates an ICMP message.
func UnmarshalICMP(b []byte) (*ICMP, error) {
	if len(b) < ICMPHeaderLen {
		return nil, ErrShortICMP
	}
	if Checksum(b) != 0 {
		return nil, ErrBadICMPChecksum
	}
	return &ICMP{
		Type: ICMPType(b[0]),
		Code: b[1],
		ID:   binary.BigEndian.Uint16(b[4:]),
		Seq:  binary.BigEndian.Uint16(b[6:]),
		Body: append([]byte(nil), b[ICMPHeaderLen:]...),
	}, nil
}

// UnmarshalICMPLoose parses an ICMP message without verifying its
// checksum. ICMP error bodies quote only the first 8 bytes of the
// offending payload, so an ICMP message embedded there is truncated and
// its checksum cannot be expected to verify.
func UnmarshalICMPLoose(b []byte) (*ICMP, error) {
	if len(b) < ICMPHeaderLen {
		return nil, ErrShortICMP
	}
	return &ICMP{
		Type: ICMPType(b[0]),
		Code: b[1],
		ID:   binary.BigEndian.Uint16(b[4:]),
		Seq:  binary.BigEndian.Uint16(b[6:]),
		Body: append([]byte(nil), b[ICMPHeaderLen:]...),
	}, nil
}

// ICMPErrorBody builds the body of an ICMP error message: the offending
// packet's IP header plus the first 8 bytes of its payload (RFC 792). It
// writes those bytes alone, not the whole packet.
func ICMPErrorBody(offender *Packet) []byte {
	total := HeaderLen + len(offender.Payload)
	if total > MaxTotalLen {
		//lint:allow dropaccounting only the error body is elided; the offending packet was already accounted by the caller
		return nil
	}
	b := make([]byte, HeaderLen+min(8, len(offender.Payload)))
	offender.putHeader(b, total)
	copy(b[HeaderLen:], offender.Payload)
	return b
}
