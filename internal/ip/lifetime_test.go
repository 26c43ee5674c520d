package ip

import (
	"bytes"
	"testing"

	"mosquitonet/internal/bufpool"
	"mosquitonet/internal/sim"
)

func bufpoolOutstanding() int64 { return bufpool.ReadStats().Outstanding() }

// loopPool is the packet pool of a fresh loop.
func loopPool() *Pool { return PoolFor(sim.New(1)) }

// TestMarshalIntoDirtyBuffer: a pooled buffer is whatever its last user
// left in it. Every marshal-into variant must produce, in a dirty buffer,
// exactly the bytes it produces in a zeroed one — which are the allocating
// marshal's. A variant that sums a checksum over the stale bytes of its own
// checksum field (or leaves a field it never writes) fails here, not as
// 26,922 lost probes in a fleet run. Two fills, because 0xffff is the ones'
// complement zero: a stale checksum field of 0xff bytes adds nothing to the
// sum and hides exactly the bug this is for.
func TestMarshalIntoDirtyBuffer(t *testing.T) {
	src, dst := Addr{36, 135, 0, 7}, Addr{36, 8, 0, 99}
	body := []byte("a payload of odd length")
	pkt := &Packet{
		Header:  Header{TOS: 3, ID: 77, DontFrag: true, TTL: 9, Protocol: ProtoUDP, Src: src, Dst: dst},
		Payload: body,
	}
	wantIP, err := pkt.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	udp := UDPHeader{SrcPort: 1883, DstPort: 434}
	tcp := TCPHeader{SrcPort: 80, DstPort: 4096, Seq: 1 << 31, Ack: 12345, Flags: TCPAck | TCPPsh, Window: 8192}
	icmp := &ICMP{Type: ICMPEchoRequest, Code: 0, ID: 5, Seq: 6, Body: body}
	cases := []struct {
		name string
		want []byte
		into func(b []byte)
	}{
		{"Packet.MarshalInto", wantIP, func(b []byte) {
			if _, err := pkt.MarshalInto(b); err != nil {
				t.Fatal(err)
			}
		}},
		{"marshalUDPInto", MarshalUDP(src, dst, udp, body), func(b []byte) { marshalUDPInto(b, src, dst, udp, body) }},
		{"marshalTCPInto", MarshalTCP(src, dst, tcp, body), func(b []byte) { marshalTCPInto(b, src, dst, tcp, body) }},
		{"marshalICMPInto", MarshalICMP(icmp), func(b []byte) { marshalICMPInto(b, icmp) }},
	}
	for _, c := range cases {
		zeroed := make([]byte, len(c.want))
		c.into(zeroed)
		if !bytes.Equal(zeroed, c.want) {
			t.Errorf("%s into a zeroed buffer differs from the allocating marshal:\n got %x\nwant %x", c.name, zeroed, c.want)
		}
		for _, fill := range []byte{0xff, 0xa5} {
			dirty := bytes.Repeat([]byte{fill}, len(c.want))
			c.into(dirty)
			if !bytes.Equal(dirty, c.want) {
				t.Errorf("%s into a buffer of %#x differs from a zeroed one:\n got %x\nwant %x", c.name, fill, dirty, c.want)
			}
		}
	}
}

// TestPooledConstructorsMarshalClean: the constructors marshal into recycled
// buffers. Dirty the pool, then require each constructor's payload to parse
// and to equal the allocating marshal's.
func TestPooledConstructorsMarshalClean(t *testing.T) {
	pl := loopPool()
	src, dst := Addr{10, 0, 0, 1}, Addr{10, 0, 0, 2}
	body := []byte("probe")
	dirtyPool := func() {
		var held []*Packet
		for i := 0; i < 8; i++ {
			p := pl.acquire(64)
			for j := range p.Payload {
				p.Payload[j] = 0xa5
			}
			held = append(held, p)
		}
		for _, p := range held {
			p.Release()
		}
	}
	dirtyPool()
	u := NewUDPPacket(pl, src, dst, UDPHeader{SrcPort: 7, DstPort: 9}, body)
	if !bytes.Equal(u.Payload, MarshalUDP(src, dst, UDPHeader{SrcPort: 7, DstPort: 9}, body)) {
		t.Errorf("NewUDPPacket payload %x", u.Payload)
	}
	if _, _, err := UnmarshalUDP(src, dst, u.Payload); err != nil {
		t.Errorf("NewUDPPacket: %v", err)
	}
	dirtyPool()
	outer, err := Encapsulate(dst, src, DefaultTTL, 3, u)
	if err != nil {
		t.Fatal(err)
	}
	u.Release()
	inner, err := Decapsulate(outer)
	if err != nil {
		t.Fatalf("Encapsulate into a dirty buffer does not decapsulate: %v", err)
	}
	if _, got, err := UnmarshalUDP(src, dst, inner.Payload); err != nil || !bytes.Equal(got, body) {
		t.Errorf("through the tunnel: %q, %v", got, err)
	}
	inner.Release()
	dirtyPool()
	tc := NewTCPPacket(pl, src, dst, TCPHeader{SrcPort: 1, DstPort: 2, Flags: TCPSyn}, nil)
	if !bytes.Equal(tc.Payload, MarshalTCP(src, dst, TCPHeader{SrcPort: 1, DstPort: 2, Flags: TCPSyn}, nil)) {
		t.Errorf("NewTCPPacket payload %x", tc.Payload)
	}
	tc.Release()
	dirtyPool()
	m := &ICMP{Type: ICMPEchoReply, ID: 1, Seq: 2, Body: body}
	ic := NewICMPPacket(pl, src, dst, m)
	if !bytes.Equal(ic.Payload, MarshalICMP(m)) {
		t.Errorf("NewICMPPacket payload %x", ic.Payload)
	}
	ic.Release()
}

// TestReleasePoisons: a released packet reads as a zeroed header, not as the
// packet it was and never as another one; a second Release is a panic, not
// a second trip through the pool; a plain literal takes any number.
func TestReleasePoisons(t *testing.T) {
	pl := loopPool()
	CountPools(true)
	defer CountPools(false)
	p := NewUDPPacket(pl, Addr{10, 0, 0, 1}, Addr{10, 0, 0, 2}, UDPHeader{SrcPort: 7, DstPort: 9}, []byte("kept"))
	p.Trace = 99
	before := ReadPoolStats()
	p.Release()
	if got := p.String(); got != "proto(0) 0.0.0.0->0.0.0.0 ttl=0 len=20" || p.Payload != nil || p.Trace != 0 {
		t.Fatalf("a released packet reads %s payload %q trace %d, want a zeroed header", got, p.Payload, p.Trace)
	}
	if after := ReadPoolStats(); after.Released != before.Released+1 || after.Made != before.Made {
		t.Fatalf("Release counted %+v -> %+v", before, after)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second Release of one packet did not panic")
			}
		}()
		p.Release()
	}()
	if after := ReadPoolStats(); after.Released != before.Released+1 {
		t.Fatalf("the refused second Release was counted: %+v -> %+v", before, after)
	}

	lit := &Packet{Header: Header{Protocol: ProtoUDP, TTL: 4}, Payload: []byte("mine")}
	lit.Release()
	lit.Release()
	if lit.TTL != 4 || string(lit.Payload) != "mine" {
		t.Fatal("Release touched a plain packet")
	}

	// A clone of a pooled packet is plain: it owns a copy, not the buffer.
	q := NewUDPPacket(pl, Addr{10, 0, 0, 1}, Addr{10, 0, 0, 2}, UDPHeader{}, []byte("body"))
	c := q.Clone()
	want := append([]byte(nil), q.Payload...)
	q.Release()
	c.Release()
	if !bytes.Equal(c.Payload, want) || c.Protocol != ProtoUDP {
		t.Fatal("a clone did not survive its original's release")
	}
}

// TestDecapsulateMovesTheBuffer: the inner packet takes over the outer's
// buffer and the outer is consumed — one buffer, released once, with the
// inner. A pooled packet keeps its buffer between lives, so the buffer
// count moves exactly when the count of packets holding one does.
func TestDecapsulateMovesTheBuffer(t *testing.T) {
	pl := loopPool()
	CountPools(true)
	defer CountPools(false)
	pk0, bf0 := ReadPoolStats().Outstanding(), bufpoolOutstanding()
	out := func(step string, packets, buffers int64) {
		t.Helper()
		if p, b := ReadPoolStats().Outstanding()-pk0, bufpoolOutstanding()-bf0; p != packets || b != buffers {
			t.Fatalf("after %s: %+d packets and %+d buffers out, want %+d and %+d", step, p, b, packets, buffers)
		}
	}
	inner0 := NewUDPPacket(pl, Addr{36, 135, 0, 7}, Addr{36, 8, 0, 99}, UDPHeader{SrcPort: 1, DstPort: 2}, []byte("x"))
	outer, err := Encapsulate(Addr{36, 8, 0, 50}, Addr{36, 135, 0, 1}, DefaultTTL, 7, inner0)
	if err != nil {
		t.Fatal(err)
	}
	out("Encapsulate", 2, 2)
	want := inner0.Clone()
	inner0.Release()
	out("releasing the encapsulated packet", 1, 1)
	inner, err := Decapsulate(outer)
	if err != nil {
		t.Fatal(err)
	}
	if outer.Protocol != 0 || outer.Payload != nil {
		t.Fatalf("the outer packet is still readable after Decapsulate: %v", outer)
	}
	out("Decapsulate", 1, 1) // one packet in, one out; the buffer stays
	samePacket(t, "decapsulated packet", inner, want)
	inner.Release()
	out("releasing the inner packet", 0, 0)

	// A packet that is not IP-in-IP is consumed all the same.
	notIPIP := NewUDPPacket(pl, Addr{1, 1, 1, 1}, Addr{2, 2, 2, 2}, UDPHeader{}, nil)
	if _, err := Decapsulate(notIPIP); err != ErrNotEncapsulated || notIPIP.Protocol != 0 {
		t.Fatalf("Decapsulate of a UDP packet: %v, packet %v", err, notIPIP)
	}
}

// TestReleaseReturnsToItsPool: a packet goes back to the pool it came from,
// whoever releases it, and the next packet of that class from that pool is
// the same struct; another loop's pool never hands it out. Encapsulate and
// Decapsulate take from their input's pool, and a packet of no pool is
// counted like any other and then left to the collector.
func TestReleaseReturnsToItsPool(t *testing.T) {
	pa, pb := loopPool(), loopPool()
	if pa == pb {
		t.Fatal("two loops share a packet pool")
	}
	src, dst := Addr{10, 0, 0, 1}, Addr{10, 0, 0, 2}
	p := NewUDPPacket(pa, src, dst, UDPHeader{}, []byte("a"))
	p.Release()
	if q := NewUDPPacket(pb, src, dst, UDPHeader{}, []byte("b")); q == p {
		t.Fatal("another loop's pool handed out the released packet")
	}
	q := NewUDPPacket(pa, src, dst, UDPHeader{}, []byte("c"))
	if q != p {
		t.Fatal("the pool did not hand back the packet released to it")
	}
	outer, err := Encapsulate(dst, src, DefaultTTL, 1, q)
	if err != nil {
		t.Fatal(err)
	}
	q.Release()
	if outer.pool != pa {
		t.Fatalf("the encapsulated packet is of pool %p, want its inner's %p", outer.pool, pa)
	}
	inner, err := Decapsulate(outer)
	if err != nil {
		t.Fatal(err)
	}
	if inner.pool != pa {
		t.Fatalf("the decapsulated packet is of pool %p, want the outer's %p", inner.pool, pa)
	}
	inner.Release()

	CountPools(true)
	defer CountPools(false)
	before := ReadPoolStats()
	n := NewUDPPacket(nil, src, dst, UDPHeader{}, nil)
	n.Release()
	if after := ReadPoolStats(); after.Made != before.Made+1 || after.Released != before.Released+1 {
		t.Fatalf("a packet of no pool was not counted: %+v -> %+v", before, after)
	}
}
