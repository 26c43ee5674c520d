package ip

import (
	"encoding/binary"
	"errors"
)

// UDPHeaderLen is the length of a UDP header.
const UDPHeaderLen = 8

// UDPHeader is a parsed UDP header.
type UDPHeader struct {
	SrcPort, DstPort uint16
}

// UDP checksum errors.
var (
	ErrShortUDP       = errors.New("ip: truncated UDP datagram")
	ErrBadUDPChecksum = errors.New("ip: UDP checksum mismatch")
	ErrBadUDPLength   = errors.New("ip: UDP length field mismatch")
)

// MarshalUDP serializes a UDP datagram, computing the checksum over the
// pseudo-header (so src and dst are the IP addresses the datagram will be
// sent between).
func MarshalUDP(src, dst Addr, h UDPHeader, payload []byte) []byte {
	b := make([]byte, UDPHeaderLen+len(payload))
	marshalUDPInto(b, src, dst, h, payload)
	return b
}

// marshalUDPInto is MarshalUDP into b, which must be exactly
// UDPHeaderLen+len(payload) bytes and may hold anything: every byte is
// written, the checksum field zeroed before the sum is taken over it.
func marshalUDPInto(b []byte, src, dst Addr, h UDPHeader, payload []byte) {
	if len(b) != UDPHeaderLen+len(payload) {
		panic("ip: marshalUDPInto buffer length mismatch")
	}
	binary.BigEndian.PutUint16(b[0:], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:], h.DstPort)
	binary.BigEndian.PutUint16(b[4:], uint16(len(b)))
	b[6], b[7] = 0, 0
	copy(b[UDPHeaderLen:], payload)
	ck := transportChecksum(src, dst, ProtoUDP, b)
	if ck == 0 {
		ck = 0xffff // RFC 768: transmitted as all ones if computed zero
	}
	binary.BigEndian.PutUint16(b[6:], ck)
}

// NewUDPPacket returns a pooled packet src -> dst carrying the datagram,
// marshaled straight into the packet's own buffer. The caller owns it and
// hands it to Host.Output (or OutputVia), or releases it.
//
//mnet:ownership returns-pooled
func NewUDPPacket(src, dst Addr, h UDPHeader, payload []byte) *Packet {
	p := acquire(UDPHeaderLen + len(payload))
	p.Header = Header{Protocol: ProtoUDP, Src: src, Dst: dst}
	marshalUDPInto(p.Payload, src, dst, h, payload)
	return p
}

// UnmarshalUDP parses and validates a UDP datagram received between the
// given IP addresses, returning the header and the payload — a window into
// b, the caller's for as long as b is.
func UnmarshalUDP(src, dst Addr, b []byte) (UDPHeader, []byte, error) {
	if len(b) < UDPHeaderLen {
		return UDPHeader{}, nil, ErrShortUDP
	}
	length := int(binary.BigEndian.Uint16(b[4:]))
	if length < UDPHeaderLen || length > len(b) {
		return UDPHeader{}, nil, ErrBadUDPLength
	}
	b = b[:length]
	if binary.BigEndian.Uint16(b[6:]) != 0 { // checksum of zero means "not computed"
		if transportChecksum(src, dst, ProtoUDP, b) != 0 {
			return UDPHeader{}, nil, ErrBadUDPChecksum
		}
	}
	h := UDPHeader{
		SrcPort: binary.BigEndian.Uint16(b[0:]),
		DstPort: binary.BigEndian.Uint16(b[2:]),
	}
	return h, b[UDPHeaderLen:], nil
}
