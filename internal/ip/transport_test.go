package ip

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

var (
	srcA = MustParseAddr("36.135.0.10")
	dstA = MustParseAddr("36.8.0.99")
)

func TestUDPRoundTrip(t *testing.T) {
	h := UDPHeader{SrcPort: 5001, DstPort: 7}
	payload := []byte("echo me")
	b := MarshalUDP(srcA, dstA, h, payload)
	if len(b) != UDPHeaderLen+len(payload) {
		t.Fatalf("len = %d", len(b))
	}
	gh, gp, err := UnmarshalUDP(srcA, dstA, b)
	if err != nil {
		t.Fatal(err)
	}
	if gh != h || !bytes.Equal(gp, payload) {
		t.Fatalf("round trip mismatch: %+v %q", gh, gp)
	}
}

func TestUDPChecksumCoversPseudoHeader(t *testing.T) {
	b := MarshalUDP(srcA, dstA, UDPHeader{SrcPort: 1, DstPort: 2}, []byte("x"))
	// Same bytes "received" at a different destination address must fail:
	// this is exactly the bug class mobile IP can introduce if a tunnel
	// rewrites addresses without fixing transport checksums.
	if _, _, err := UnmarshalUDP(srcA, MustParseAddr("36.134.0.5"), b); err != ErrBadUDPChecksum {
		t.Fatalf("err = %v, want ErrBadUDPChecksum", err)
	}
}

func TestUDPCorruptPayloadDetected(t *testing.T) {
	b := MarshalUDP(srcA, dstA, UDPHeader{SrcPort: 1, DstPort: 2}, []byte("payload"))
	b[len(b)-1] ^= 0x01
	if _, _, err := UnmarshalUDP(srcA, dstA, b); err != ErrBadUDPChecksum {
		t.Fatalf("err = %v, want ErrBadUDPChecksum", err)
	}
}

func TestUDPZeroChecksumSkipsVerification(t *testing.T) {
	b := MarshalUDP(srcA, dstA, UDPHeader{SrcPort: 1, DstPort: 2}, []byte("p"))
	binary.BigEndian.PutUint16(b[6:], 0) // sender did not compute a checksum
	if _, _, err := UnmarshalUDP(srcA, dstA, b); err != nil {
		t.Fatalf("zero checksum rejected: %v", err)
	}
}

func TestUDPErrors(t *testing.T) {
	if _, _, err := UnmarshalUDP(srcA, dstA, []byte{1, 2, 3}); err != ErrShortUDP {
		t.Errorf("short: %v", err)
	}
	b := MarshalUDP(srcA, dstA, UDPHeader{}, []byte("abc"))
	binary.BigEndian.PutUint16(b[4:], uint16(len(b)+1))
	if _, _, err := UnmarshalUDP(srcA, dstA, b); err != ErrBadUDPLength {
		t.Errorf("long length field: %v", err)
	}
	binary.BigEndian.PutUint16(b[4:], UDPHeaderLen-1)
	if _, _, err := UnmarshalUDP(srcA, dstA, b); err != ErrBadUDPLength {
		t.Errorf("short length field: %v", err)
	}
}

func TestUDPLengthFieldTrimsPadding(t *testing.T) {
	payload := []byte("data")
	b := MarshalUDP(srcA, dstA, UDPHeader{SrcPort: 9, DstPort: 10}, payload)
	b = append(b, 0, 0, 0) // link padding
	_, gp, err := UnmarshalUDP(srcA, dstA, b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gp, payload) {
		t.Fatalf("payload = %q", gp)
	}
}

func TestPropertyUDPRoundTrip(t *testing.T) {
	f := func(sp, dp uint16, src, dst Addr, payload []byte) bool {
		if len(payload) > 2000 {
			payload = payload[:2000]
		}
		b := MarshalUDP(src, dst, UDPHeader{SrcPort: sp, DstPort: dp}, payload)
		h, p, err := UnmarshalUDP(src, dst, b)
		return err == nil && h.SrcPort == sp && h.DstPort == dp && bytes.Equal(p, payload)
	}
	if err := quick.Check(f, quickConfig(300)); err != nil {
		t.Fatal(err)
	}
}

func TestICMPEchoRoundTrip(t *testing.T) {
	m := &ICMP{Type: ICMPEchoRequest, ID: 42, Seq: 7, Body: []byte("ping")}
	b := MarshalICMP(m)
	got, err := UnmarshalICMP(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != m.Type || got.ID != 42 || got.Seq != 7 || !bytes.Equal(got.Body, m.Body) {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestICMPChecksum(t *testing.T) {
	b := MarshalICMP(&ICMP{Type: ICMPEchoReply, ID: 1, Seq: 1})
	b[0] = byte(ICMPEchoRequest) // tamper with type
	if _, err := UnmarshalICMP(b); err != ErrBadICMPChecksum {
		t.Fatalf("err = %v, want ErrBadICMPChecksum", err)
	}
	if _, err := UnmarshalICMP([]byte{8, 0}); err != ErrShortICMP {
		t.Fatalf("short: %v", err)
	}
}

func TestICMPGatewayEncoding(t *testing.T) {
	m := &ICMP{Type: ICMPRedirect, Code: 1}
	gw := MustParseAddr("36.8.0.1")
	m.SetGateway(gw)
	got, err := UnmarshalICMP(MarshalICMP(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Gateway() != gw {
		t.Fatalf("gateway = %v, want %v", got.Gateway(), gw)
	}
}

func TestICMPErrorBody(t *testing.T) {
	p := &Packet{
		Header:  Header{TTL: 64, Protocol: ProtoUDP, Src: srcA, Dst: dstA},
		Payload: []byte("0123456789abcdef"),
	}
	body := ICMPErrorBody(p)
	if len(body) != HeaderLen+8 {
		t.Fatalf("body length %d, want %d", len(body), HeaderLen+8)
	}
	// The embedded header must still parse once padded to total length
	// expectations are relaxed: verify the addresses survive.
	if !bytes.Equal(body[12:16], p.Src[:]) || !bytes.Equal(body[16:20], p.Dst[:]) {
		t.Fatal("embedded addresses wrong")
	}
	short := &Packet{Header: Header{TTL: 1, Protocol: ProtoUDP, Src: srcA, Dst: dstA}, Payload: []byte("abc")}
	if got := ICMPErrorBody(short); len(got) != HeaderLen+3 {
		t.Fatalf("short body length %d", len(got))
	}
}

func TestPropertyICMPRoundTrip(t *testing.T) {
	f := func(typ, code uint8, id, seq uint16, body []byte) bool {
		if len(body) > 1000 {
			body = body[:1000]
		}
		m := &ICMP{Type: ICMPType(typ), Code: code, ID: id, Seq: seq, Body: body}
		got, err := UnmarshalICMP(MarshalICMP(m))
		return err == nil && got.Type == m.Type && got.Code == code &&
			got.ID == id && got.Seq == seq && bytes.Equal(got.Body, body)
	}
	if err := quick.Check(f, quickConfig(300)); err != nil {
		t.Fatal(err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	h := TCPHeader{SrcPort: 2000, DstPort: 80, Seq: 0xdeadbeef, Ack: 0x01020304, Flags: TCPAck | TCPPsh, Window: 8192}
	payload := []byte("GET / HTTP/1.0\r\n")
	b := MarshalTCP(srcA, dstA, h, payload)
	gh, gp, err := UnmarshalTCP(srcA, dstA, b)
	if err != nil {
		t.Fatal(err)
	}
	if gh != h || !bytes.Equal(gp, payload) {
		t.Fatalf("round trip: %+v %q", gh, gp)
	}
}

// TestUnmarshalTCPBorrows: the payload handed up is a window into the
// segment, capped at its end, not a copy.
func TestUnmarshalTCPBorrows(t *testing.T) {
	b := MarshalTCP(srcA, dstA, TCPHeader{SrcPort: 2000, DstPort: 80, Flags: TCPAck}, []byte("payload"))
	b = append(b, 0xee)[:len(b)] // room behind the segment that the payload must not reach
	_, p, err := UnmarshalTCP(srcA, dstA, b)
	if err != nil {
		t.Fatal(err)
	}
	if &p[0] != &b[TCPHeaderLen] || cap(p) != len(p) {
		t.Fatal("UnmarshalTCP copied the payload, or left it room to grow")
	}
}

func TestTCPChecksumCoversAddresses(t *testing.T) {
	b := MarshalTCP(srcA, dstA, TCPHeader{SrcPort: 1, DstPort: 2, Flags: TCPSyn}, nil)
	if _, _, err := UnmarshalTCP(MustParseAddr("9.9.9.9"), dstA, b); err != ErrBadTCPChecksum {
		t.Fatalf("err = %v, want ErrBadTCPChecksum", err)
	}
}

func TestTCPErrors(t *testing.T) {
	if _, _, err := UnmarshalTCP(srcA, dstA, make([]byte, 10)); err != ErrShortTCP {
		t.Errorf("short: %v", err)
	}
	b := MarshalTCP(srcA, dstA, TCPHeader{}, nil)
	b[12] = (4) << 4 // data offset 16 < 20
	if _, _, err := UnmarshalTCP(srcA, dstA, b); err != ErrBadTCPOffset {
		t.Errorf("offset: %v", err)
	}
}

func TestTCPFlagString(t *testing.T) {
	h := TCPHeader{Flags: TCPSyn | TCPAck}
	if h.FlagString() != "SYN|ACK" {
		t.Fatalf("FlagString = %q", h.FlagString())
	}
	if (TCPHeader{}).FlagString() != "-" {
		t.Fatal("empty flags")
	}
}

func TestSeqArithmetic(t *testing.T) {
	cases := []struct {
		a, b  uint32
		less  bool
		lessE bool
	}{
		{1, 2, true, true},
		{2, 1, false, false},
		{5, 5, false, true},
		{0xffffffff, 0, true, true},   // wraparound
		{0, 0xffffffff, false, false}, // wraparound reverse
		{0x7fffffff, 0x80000000, true, true},
	}
	for _, c := range cases {
		if SeqLess(c.a, c.b) != c.less {
			t.Errorf("SeqLess(%#x,%#x) = %v", c.a, c.b, !c.less)
		}
		if SeqLEQ(c.a, c.b) != c.lessE {
			t.Errorf("SeqLEQ(%#x,%#x) = %v", c.a, c.b, !c.lessE)
		}
	}
}

// Property: sequence comparison is antisymmetric for distinct points within
// half the sequence space.
func TestPropertySeqAntisymmetric(t *testing.T) {
	f := func(a uint32, deltaRaw uint32) bool {
		delta := deltaRaw%0x7fffffff + 1 // 1..2^31-1
		b := a + delta
		return SeqLess(a, b) && !SeqLess(b, a) && SeqLEQ(a, b) && !SeqLEQ(b, a)
	}
	if err := quick.Check(f, quickConfig(300)); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyTCPRoundTrip(t *testing.T) {
	f := func(sp, dp uint16, seq, ack uint32, flags uint8, win uint16, src, dst Addr, payload []byte) bool {
		if len(payload) > 2000 {
			payload = payload[:2000]
		}
		h := TCPHeader{SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack, Flags: flags & 0x3f, Window: win}
		gh, gp, err := UnmarshalTCP(src, dst, MarshalTCP(src, dst, h, payload))
		return err == nil && gh == h && bytes.Equal(gp, payload)
	}
	if err := quick.Check(f, quickConfig(300)); err != nil {
		t.Fatal(err)
	}
}
