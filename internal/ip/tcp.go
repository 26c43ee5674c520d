package ip

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// TCPHeaderLen is the length of a TCP header without options. The
// simulator's stream transport does not use TCP options.
const TCPHeaderLen = 20

// TCP flags.
const (
	TCPFin = 1 << iota
	TCPSyn
	TCPRst
	TCPPsh
	TCPAck
	TCPUrg
)

// TCPHeader is a parsed TCP header.
type TCPHeader struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
}

// FlagString renders the flag set like "SYN|ACK" for traces.
func (h TCPHeader) FlagString() string {
	names := []struct {
		bit  uint8
		name string
	}{{TCPSyn, "SYN"}, {TCPAck, "ACK"}, {TCPFin, "FIN"}, {TCPRst, "RST"}, {TCPPsh, "PSH"}, {TCPUrg, "URG"}}
	var parts []string
	for _, n := range names {
		if h.Flags&n.bit != 0 {
			parts = append(parts, n.name)
		}
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, "|")
}

func (h TCPHeader) String() string {
	return fmt.Sprintf("tcp %d->%d seq=%d ack=%d %s win=%d",
		h.SrcPort, h.DstPort, h.Seq, h.Ack, h.FlagString(), h.Window)
}

// TCP parse errors.
var (
	ErrShortTCP       = errors.New("ip: truncated TCP segment")
	ErrBadTCPChecksum = errors.New("ip: TCP checksum mismatch")
	ErrBadTCPOffset   = errors.New("ip: bad TCP data offset")
)

// MarshalTCP serializes a TCP segment with a pseudo-header checksum.
func MarshalTCP(src, dst Addr, h TCPHeader, payload []byte) []byte {
	b := make([]byte, TCPHeaderLen+len(payload))
	marshalTCPInto(b, src, dst, h, payload)
	return b
}

// marshalTCPInto is MarshalTCP into b, which must be exactly
// TCPHeaderLen+len(payload) bytes and may hold anything: every byte is
// written, the checksum and the unused urgent pointer zeroed before the sum
// is taken over them.
func marshalTCPInto(b []byte, src, dst Addr, h TCPHeader, payload []byte) {
	if len(b) != TCPHeaderLen+len(payload) {
		panic("ip: marshalTCPInto buffer length mismatch")
	}
	binary.BigEndian.PutUint16(b[0:], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:], h.DstPort)
	binary.BigEndian.PutUint32(b[4:], h.Seq)
	binary.BigEndian.PutUint32(b[8:], h.Ack)
	b[12] = (TCPHeaderLen / 4) << 4
	b[13] = h.Flags
	binary.BigEndian.PutUint16(b[14:], h.Window)
	b[16], b[17], b[18], b[19] = 0, 0, 0, 0
	copy(b[TCPHeaderLen:], payload)
	binary.BigEndian.PutUint16(b[16:], transportChecksum(src, dst, ProtoTCP, b))
}

// NewTCPPacket returns a packet of pl src -> dst carrying the segment,
// marshaled straight into the packet's own buffer. The caller owns it and
// hands it to Host.Output, or releases it.
//
//mnet:ownership returns-pooled
func NewTCPPacket(pl *Pool, src, dst Addr, h TCPHeader, payload []byte) *Packet {
	p := pl.acquire(TCPHeaderLen + len(payload))
	p.Header = Header{Protocol: ProtoTCP, Src: src, Dst: dst}
	marshalTCPInto(p.Payload, src, dst, h, payload)
	return p
}

// UnmarshalTCP parses and validates a TCP segment received between the
// given IP addresses. The returned payload is a window into b, not a copy.
func UnmarshalTCP(src, dst Addr, b []byte) (TCPHeader, []byte, error) {
	if len(b) < TCPHeaderLen {
		return TCPHeader{}, nil, ErrShortTCP
	}
	off := int(b[12]>>4) * 4
	if off < TCPHeaderLen || off > len(b) {
		return TCPHeader{}, nil, ErrBadTCPOffset
	}
	if transportChecksum(src, dst, ProtoTCP, b) != 0 {
		return TCPHeader{}, nil, ErrBadTCPChecksum
	}
	h := TCPHeader{
		SrcPort: binary.BigEndian.Uint16(b[0:]),
		DstPort: binary.BigEndian.Uint16(b[2:]),
		Seq:     binary.BigEndian.Uint32(b[4:]),
		Ack:     binary.BigEndian.Uint32(b[8:]),
		Flags:   b[13],
		Window:  binary.BigEndian.Uint16(b[14:]),
	}
	return h, b[off:len(b):len(b)], nil
}

// SeqLess reports whether sequence number a precedes b in modular
// (RFC 793 serial-number) arithmetic.
func SeqLess(a, b uint32) bool { return int32(a-b) < 0 }

// SeqLEQ reports whether a precedes or equals b in modular arithmetic.
func SeqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }
