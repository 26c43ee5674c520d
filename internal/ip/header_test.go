package ip

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func samplePacket() *Packet {
	return &Packet{
		Header: Header{
			TOS:      0,
			ID:       0x1234,
			TTL:      64,
			Protocol: ProtoUDP,
			Src:      MustParseAddr("36.135.0.10"),
			Dst:      MustParseAddr("36.8.0.99"),
		},
		Payload: []byte("hello mosquitonet"),
	}
}

func TestPacketMarshalUnmarshalRoundTrip(t *testing.T) {
	p := samplePacket()
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != p.Len() {
		t.Fatalf("marshaled length %d, want %d", len(b), p.Len())
	}
	q, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if q.Header != p.Header {
		t.Fatalf("header mismatch: %+v vs %+v", q.Header, p.Header)
	}
	if !bytes.Equal(q.Payload, p.Payload) {
		t.Fatal("payload mismatch")
	}
}

func TestHeaderChecksumValid(t *testing.T) {
	b, err := samplePacket().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if Checksum(b[:HeaderLen]) != 0 {
		t.Fatal("marshaled header does not checksum to zero")
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	good, _ := samplePacket().Marshal()

	for i := 0; i < HeaderLen; i++ {
		b := append([]byte(nil), good...)
		b[i] ^= 0xff
		if _, err := Unmarshal(b); err == nil {
			// flipping every bit of byte i must break version, IHL,
			// length, checksum, or another validated field
			t.Errorf("corruption at header byte %d accepted", i)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(nil); err != ErrShortPacket {
		t.Errorf("nil: %v", err)
	}
	if _, err := Unmarshal(make([]byte, 10)); err != ErrShortPacket {
		t.Errorf("short: %v", err)
	}
	b, _ := samplePacket().Marshal()
	b6 := append([]byte(nil), b...)
	b6[0] = 6<<4 | 5
	if _, err := Unmarshal(b6); err != ErrBadVersion {
		t.Errorf("version: %v", err)
	}
	opts := append([]byte(nil), b...)
	opts[0] = 4<<4 | 6 // IHL 24: options unsupported
	if _, err := Unmarshal(opts); err != ErrBadHeaderLen {
		t.Errorf("ihl: %v", err)
	}
	trunc := append([]byte(nil), b...)
	binary.BigEndian.PutUint16(trunc[2:], uint16(len(b)+4)) // total > buffer
	if _, err := Unmarshal(trunc); err != ErrShortPacket {
		t.Errorf("total length: %v", err)
	}
	bad := append([]byte(nil), b...)
	bad[HeaderLen-1] ^= 1 // flip last header byte (dst addr) -> checksum fails
	if _, err := Unmarshal(bad); err != ErrBadChecksum {
		t.Errorf("checksum: %v", err)
	}
}

func TestUnmarshalIgnoresTrailingBytes(t *testing.T) {
	// Links may pad frames; Unmarshal must honor the total-length field.
	p := samplePacket()
	b, _ := p.Marshal()
	b = append(b, 0xde, 0xad, 0xbe, 0xef)
	q, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(q.Payload, p.Payload) {
		t.Fatalf("payload picked up padding: %q", q.Payload)
	}
}

func TestMarshalTooLong(t *testing.T) {
	p := samplePacket()
	p.Payload = make([]byte, MaxTotalLen)
	if _, err := p.Marshal(); err != ErrTooLong {
		t.Fatalf("err = %v, want ErrTooLong", err)
	}
}

func TestFragmentFieldsRoundTrip(t *testing.T) {
	p := samplePacket()
	p.DontFrag = true
	p.MoreFrag = true
	p.FragOff = 0x1abc
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !q.DontFrag || !q.MoreFrag || q.FragOff != 0x1abc {
		t.Fatalf("fragment fields lost: %+v", q.Header)
	}
}

func TestClone(t *testing.T) {
	p := samplePacket()
	q := p.Clone()
	q.Payload[0] = 'X'
	q.TTL = 1
	if p.Payload[0] == 'X' || p.TTL == 1 {
		t.Fatal("Clone shares state with original")
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example data.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(b); got != ^uint16(0xddf2) {
		t.Fatalf("Checksum = %#x, want %#x", got, ^uint16(0xddf2))
	}
	// Odd length: trailing byte padded with zero.
	odd := []byte{0x01}
	if got := Checksum(odd); got != ^uint16(0x0100) {
		t.Fatalf("odd Checksum = %#x", got)
	}
}

// refSum is RFC 1071's own loop, kept as the reference the word-at-a-time
// sum must agree with: add 16-bit big-endian words, pad an odd tail byte
// with zero, fold the carries. The accumulator is wide enough that no
// starting sum or length used here can overflow it.
func refSum(acc uint64, b []byte) uint64 {
	for len(b) >= 2 {
		acc += uint64(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		acc += uint64(b[0]) << 8
	}
	for acc>>16 != 0 {
		acc = acc&0xffff + acc>>16
	}
	return acc
}

// TestChecksumMatchesReference: the 64-bit sum equals the 16-bit reference
// on every length from 0 to 4,100 bytes (each tail, each alignment of the
// 32-byte loop), on the all-zero and all-0xFF buffers where ones'-complement
// zero and end-around carry show, and from starting sums around the 32-bit
// limit that a pseudo-header never reaches but the carry chain must take.
func TestChecksumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1071))
	starts := []uint64{0, 1, 0xffff, 0x1fffe, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1<<48 - 1}
	for n := 0; n <= 4100; n++ {
		random := make([]byte, n)
		rng.Read(random)
		for _, b := range [][]byte{random, make([]byte, n), bytes.Repeat([]byte{0xff}, n)} {
			if got, want := Checksum(b), ^uint16(refSum(0, b)); got != want {
				t.Fatalf("Checksum of %d bytes %x... = %#04x, reference %#04x", n, b[:min(n, 8)], got, want)
			}
			for _, acc := range starts {
				if got, want := sum(acc, b), refSum(acc, b); got != want {
					t.Fatalf("sum(%#x, %d bytes %x...) = %#x, reference %#x", acc, n, b[:min(n, 8)], got, want)
				}
			}
		}
	}
}

func TestEncapsulateDecapsulate(t *testing.T) {
	inner := samplePacket()
	outer, err := Encapsulate(MustParseAddr("36.8.0.50"), MustParseAddr("36.135.0.1"), DefaultTTL, 7, inner)
	if err != nil {
		t.Fatal(err)
	}
	if outer.Protocol != ProtoIPIP {
		t.Fatalf("outer protocol %v", outer.Protocol)
	}
	if outer.Len() != inner.Len()+HeaderLen {
		t.Fatalf("encapsulation overhead %d bytes, want %d", outer.Len()-inner.Len(), HeaderLen)
	}
	// The outer packet must survive a real marshal/unmarshal cycle.
	wire, err := outer.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	rx, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decapsulate(rx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header != inner.Header || !bytes.Equal(got.Payload, inner.Payload) {
		t.Fatal("inner packet did not survive the tunnel")
	}
}

// TestDecapsulateBorrows: the inner packet's payload is a window into what
// was the outer's — capped, so an append cannot write past it — while
// Unmarshal, whose input may be a pooled frame, still hands out a copy.
func TestDecapsulateBorrows(t *testing.T) {
	outer, err := Encapsulate(MustParseAddr("36.8.0.50"), MustParseAddr("36.135.0.1"), DefaultTTL, 7, samplePacket())
	if err != nil {
		t.Fatal(err)
	}
	body := outer.Payload // Decapsulate consumes outer and moves this buffer under inner
	inner, err := Decapsulate(outer)
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Release()
	if &inner.Payload[0] != &body[HeaderLen] || cap(inner.Payload) != len(inner.Payload) {
		t.Fatal("Decapsulate copied the inner payload, or left it room to grow into the outer's")
	}
	copied, err := Unmarshal(body)
	if err != nil {
		t.Fatal(err)
	}
	if &copied.Payload[0] == &body[HeaderLen] || !bytes.Equal(copied.Payload, inner.Payload) {
		t.Fatal("Unmarshal must own its payload")
	}
}

func TestDecapsulateNonIPIP(t *testing.T) {
	if _, err := Decapsulate(samplePacket()); err != ErrNotEncapsulated {
		t.Fatalf("err = %v, want ErrNotEncapsulated", err)
	}
}

func TestDecapsulateCorruptInner(t *testing.T) {
	outer := &Packet{
		Header:  Header{TTL: 64, Protocol: ProtoIPIP, Src: MustParseAddr("1.1.1.1"), Dst: MustParseAddr("2.2.2.2")},
		Payload: []byte{1, 2, 3},
	}
	if _, err := Decapsulate(outer); err == nil {
		t.Fatal("corrupt inner packet accepted")
	}
}

func TestDoubleEncapsulation(t *testing.T) {
	inner := samplePacket()
	mid, err := Encapsulate(MustParseAddr("10.0.0.1"), MustParseAddr("10.0.0.2"), 64, 1, inner)
	if err != nil {
		t.Fatal(err)
	}
	outer, err := Encapsulate(MustParseAddr("10.0.1.1"), MustParseAddr("10.0.1.2"), 64, 2, mid)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Decapsulate(outer)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Decapsulate(a)
	if err != nil {
		t.Fatal(err)
	}
	if b.Header != inner.Header || !bytes.Equal(b.Payload, inner.Payload) {
		t.Fatal("double encapsulation did not nest")
	}
}

// Property: marshal/unmarshal round-trips arbitrary headers and payloads.
func TestPropertyPacketRoundTrip(t *testing.T) {
	f := func(tos uint8, id uint16, ttl uint8, proto uint8, src, dst Addr, payload []byte, df, mf bool, fragOff uint16) bool {
		if len(payload) > MaxTotalLen-HeaderLen {
			payload = payload[:MaxTotalLen-HeaderLen]
		}
		p := &Packet{
			Header: Header{
				TOS: tos, ID: id, TTL: ttl, Protocol: Protocol(proto),
				Src: src, Dst: dst, DontFrag: df, MoreFrag: mf, FragOff: fragOff & 0x1fff,
			},
			Payload: payload,
		}
		b, err := p.Marshal()
		if err != nil {
			return false
		}
		q, err := Unmarshal(b)
		if err != nil {
			return false
		}
		return q.Header == p.Header && bytes.Equal(q.Payload, p.Payload)
	}
	if err := quick.Check(f, quickConfig(300)); err != nil {
		t.Fatal(err)
	}
}

// Property: the Internet checksum detects any single-bit flip in the header.
func TestPropertySingleBitFlipDetected(t *testing.T) {
	f := func(id uint16, ttl uint8, src, dst Addr, bitRaw uint16) bool {
		p := &Packet{Header: Header{ID: id, TTL: ttl, Protocol: ProtoUDP, Src: src, Dst: dst}}
		b, err := p.Marshal()
		if err != nil {
			return false
		}
		bit := int(bitRaw) % (HeaderLen * 8)
		b[bit/8] ^= 1 << (bit % 8)
		_, err = Unmarshal(b)
		return err != nil
	}
	if err := quick.Check(f, quickConfig(300)); err != nil {
		t.Fatal(err)
	}
}

// Property: encapsulation always costs exactly HeaderLen bytes and
// decapsulation inverts it, for any inner packet that fits.
func TestPropertyTunnelRoundTrip(t *testing.T) {
	f := func(src, dst, osrc, odst Addr, payload []byte) bool {
		if len(payload) > 1000 {
			payload = payload[:1000]
		}
		inner := &Packet{Header: Header{TTL: 64, Protocol: ProtoTCP, Src: src, Dst: dst}, Payload: payload}
		outer, err := Encapsulate(osrc, odst, 64, 0, inner)
		if err != nil {
			return false
		}
		if outer.Len() != inner.Len()+HeaderLen {
			return false
		}
		got, err := Decapsulate(outer)
		if err != nil {
			return false
		}
		return got.Header == inner.Header && bytes.Equal(got.Payload, inner.Payload)
	}
	if err := quick.Check(f, quickConfig(300)); err != nil {
		t.Fatal(err)
	}
}

// TestPacketStringMatchesSprintf keeps the fmt form String had — too slow
// for a path capture and the admin console sit on — as the oracle for the
// hand-appended one, over seeded random headers and every protocol number.
func TestPacketStringMatchesSprintf(t *testing.T) {
	rng := rand.New(rand.NewSource(1996))
	for i := 0; i < 2000; i++ {
		p := &Packet{Payload: make([]byte, rng.Intn(3000))}
		p.Protocol, p.TTL = Protocol(i%256), uint8(rng.Intn(256))
		rng.Read(p.Src[:])
		rng.Read(p.Dst[:])
		proto := fmt.Sprintf("proto(%d)", uint8(p.Protocol))
		switch p.Protocol {
		case ProtoICMP:
			proto = "icmp"
		case ProtoIPIP:
			proto = "ipip"
		case ProtoTCP:
			proto = "tcp"
		case ProtoUDP:
			proto = "udp"
		}
		if got := p.Protocol.String(); got != proto {
			t.Fatalf("Protocol(%d).String() = %q, want %q", uint8(p.Protocol), got, proto)
		}
		want := fmt.Sprintf("%s %d.%d.%d.%d->%d.%d.%d.%d ttl=%d len=%d", proto,
			p.Src[0], p.Src[1], p.Src[2], p.Src[3], p.Dst[0], p.Dst[1], p.Dst[2], p.Dst[3], p.TTL, HeaderLen+len(p.Payload))
		if got := p.String(); got != want {
			t.Fatalf("String() = %q, want %q", got, want)
		}
	}
}

func TestProtocolString(t *testing.T) {
	cases := map[Protocol]string{ProtoICMP: "icmp", ProtoIPIP: "ipip", ProtoTCP: "tcp", ProtoUDP: "udp", 99: "proto(99)"}
	for p, want := range cases {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", uint8(p), p.String(), want)
		}
	}
}
