package ip

import (
	"bytes"
	"testing"
)

// fuzzSrc/fuzzDst anchor the pseudo-header for the UDP/TCP targets; seeds
// and checks use the same pair so checksums line up.
var (
	fuzzSrc = Addr{10, 0, 0, 1}
	fuzzDst = Addr{10, 0, 0, 2}
)

// FuzzUnmarshalHeader asserts Unmarshal never panics and, when it accepts
// input, that Marshal∘Unmarshal is a fixed point from the first re-marshal
// onward; and that the pooled parse the receive path uses agrees with it,
// error for error and field for field.
func FuzzUnmarshalHeader(f *testing.F) {
	pl := loopPool()
	seed := &Packet{
		Header:  Header{TOS: 0x10, ID: 42, TTL: 64, Protocol: ProtoUDP, Src: fuzzSrc, Dst: fuzzDst},
		Payload: []byte("mosquitonet"),
	}
	raw, err := seed.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	frag := &Packet{
		Header:  Header{ID: 7, MoreFrag: true, FragOff: 16, TTL: 3, Protocol: ProtoICMP, Src: fuzzSrc, Dst: fuzzDst},
		Payload: bytes.Repeat([]byte{0xab}, 24),
	}
	raw, err = frag.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add([]byte{0x45})
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := Unmarshal(b)
		pooled, perr := UnmarshalPooled(pl, b)
		if perr != err {
			t.Fatalf("pooled parse: %v, plain parse: %v", perr, err)
		}
		if err != nil {
			return
		}
		samePacket(t, "pooled parse", pooled, p)
		pooled.Release()
		b1, err := p.Marshal()
		if err != nil {
			t.Fatalf("parsed packet failed to marshal: %v", err)
		}
		p2, err := Unmarshal(b1)
		if err != nil {
			t.Fatalf("re-marshaled packet failed to parse: %v", err)
		}
		b2, err := p2.Marshal()
		if err != nil {
			t.Fatalf("second marshal failed: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("round trip unstable:\n b1=%x\n b2=%x", b1, b2)
		}
	})
}

func FuzzUnmarshalUDP(f *testing.F) {
	f.Add(MarshalUDP(fuzzSrc, fuzzDst, UDPHeader{SrcPort: 68, DstPort: 67}, []byte("discover")))
	f.Add(MarshalUDP(fuzzSrc, fuzzDst, UDPHeader{SrcPort: 5353, DstPort: 53}, nil))
	f.Add([]byte{0, 1, 2})
	f.Fuzz(func(t *testing.T, b []byte) {
		h, payload, err := UnmarshalUDP(fuzzSrc, fuzzDst, b)
		if err != nil {
			return
		}
		b1 := MarshalUDP(fuzzSrc, fuzzDst, h, payload)
		h2, payload2, err := UnmarshalUDP(fuzzSrc, fuzzDst, b1)
		if err != nil {
			t.Fatalf("re-marshaled datagram failed to parse: %v", err)
		}
		if h2 != h || !bytes.Equal(payload2, payload) {
			t.Fatalf("round trip changed datagram: %+v/%x -> %+v/%x", h, payload, h2, payload2)
		}
	})
}

func FuzzUnmarshalTCP(f *testing.F) {
	f.Add(MarshalTCP(fuzzSrc, fuzzDst, TCPHeader{SrcPort: 1234, DstPort: 80, Seq: 99, Ack: 100, Flags: TCPSyn | TCPAck, Window: 4096}, nil))
	f.Add(MarshalTCP(fuzzSrc, fuzzDst, TCPHeader{SrcPort: 9, DstPort: 9, Flags: TCPPsh}, []byte("payload")))
	f.Fuzz(func(t *testing.T, b []byte) {
		h, payload, err := UnmarshalTCP(fuzzSrc, fuzzDst, b)
		if err != nil {
			return
		}
		b1 := MarshalTCP(fuzzSrc, fuzzDst, h, payload)
		h2, payload2, err := UnmarshalTCP(fuzzSrc, fuzzDst, b1)
		if err != nil {
			t.Fatalf("re-marshaled segment failed to parse: %v", err)
		}
		if h2 != h || !bytes.Equal(payload2, payload) {
			t.Fatalf("round trip changed segment: %+v/%x -> %+v/%x", h, payload, h2, payload2)
		}
	})
}

func FuzzUnmarshalICMP(f *testing.F) {
	f.Add(MarshalICMP(&ICMP{Type: ICMPEchoRequest, ID: 7, Seq: 1, Body: []byte("ping")}))
	f.Add(MarshalICMP(&ICMP{Type: ICMPDestUnreach, Code: 4}))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := UnmarshalICMP(b)
		if err != nil {
			return
		}
		b1 := MarshalICMP(m)
		m2, err := UnmarshalICMP(b1)
		if err != nil {
			t.Fatalf("re-marshaled message failed to parse: %v", err)
		}
		if m2.Type != m.Type || m2.Code != m.Code || m2.ID != m.ID || m2.Seq != m.Seq || !bytes.Equal(m2.Body, m.Body) {
			t.Fatalf("round trip changed message: %+v -> %+v", m, m2)
		}
	})
}

// samePacket requires got to equal want in every field a packet carries:
// header, payload bytes (and nil-ness) and trace.
func samePacket(t *testing.T, what string, got, want *Packet) {
	t.Helper()
	if got.Header != want.Header || got.Trace != want.Trace ||
		!bytes.Equal(got.Payload, want.Payload) || (got.Payload == nil) != (want.Payload == nil) {
		t.Fatalf("%s differs:\n got %v %x\nwant %v %x", what, got, got.Payload, want, want.Payload)
	}
}

// FuzzFragmentReassemble splits an arbitrary payload at an arbitrary MTU
// and asserts the reassembler rebuilds it byte-for-byte, in either arrival
// order — and that the same fragments taken off the wire as a receiver takes
// them, pooled, rebuild the same datagram.
func FuzzFragmentReassemble(f *testing.F) {
	pl := loopPool()
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(1), false)
	f.Add(bytes.Repeat([]byte{0x5a}, 345), uint8(3), true)
	f.Add([]byte{1}, uint8(0), false)
	f.Fuzz(func(t *testing.T, payload []byte, mtuRaw uint8, reversed bool) {
		if len(payload) == 0 || len(payload) > 2048 {
			return
		}
		mtu := HeaderLen + 8*(1+int(mtuRaw%16))
		p := &Packet{
			Header:  Header{ID: 31, TTL: 64, Protocol: ProtoUDP, Src: fuzzSrc, Dst: fuzzDst},
			Payload: append([]byte(nil), payload...),
		}
		frags, err := Fragment(p, mtu)
		if err != nil {
			t.Fatalf("fragment: %v", err)
		}
		if len(frags) == 1 {
			if !bytes.Equal(frags[0].Payload, payload) {
				t.Fatal("unfragmented packet changed payload")
			}
			return
		}
		if reversed {
			for i, j := 0, len(frags)-1; i < j; i, j = i+1, j-1 {
				frags[i], frags[j] = frags[j], frags[i]
			}
		}
		r, wire := NewReassembler(), NewReassembler()
		var full, fromWire *Packet
		for i, fr := range frags {
			raw, err := fr.Marshal()
			if err != nil {
				t.Fatalf("fragment %d failed to marshal: %v", i+1, err)
			}
			rx, err := UnmarshalPooled(pl, raw)
			if err != nil {
				t.Fatalf("fragment %d failed to parse: %v", i+1, err)
			}
			got, done := r.Add(fr)
			gotWire, doneWire := wire.Add(rx)
			if done != (i == len(frags)-1) || doneWire != done {
				t.Fatalf("fragment %d/%d: done=%v, off the wire %v", i+1, len(frags), done, doneWire)
			}
			if done {
				full, fromWire = got, gotWire
			}
		}
		if full == nil || !bytes.Equal(full.Payload, payload) {
			t.Fatalf("reassembly mismatch: got %d bytes, want %d", len(full.Payload), len(payload))
		}
		samePacket(t, "datagram reassembled off the wire", fromWire, full)
		if wire.Held() != 0 {
			t.Fatalf("reassembler still holds %d fragments of a completed datagram", wire.Held())
		}
		full.Release()
		fromWire.Release()
	})
}

// FuzzChecksum: for any bytes, at any starting sum, the word-at-a-time
// checksum agrees with RFC 1071's 16-bit loop (refSum, header_test.go).
func FuzzChecksum(f *testing.F) {
	f.Add([]byte{}, uint32(0))
	f.Add([]byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}, uint32(0))
	f.Add(bytes.Repeat([]byte{0xff}, 37), uint32(0xffffffff))
	f.Fuzz(func(t *testing.T, b []byte, acc uint32) {
		if got, want := sum(uint64(acc), b), refSum(uint64(acc), b); got != want {
			t.Fatalf("sum(%#x, %x) = %#x, reference %#x", acc, b, got, want)
		}
		if got, want := Checksum(b), ^uint16(refSum(0, b)); got != want {
			t.Fatalf("Checksum(%x) = %#04x, reference %#04x", b, got, want)
		}
	})
}
