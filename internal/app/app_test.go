package app

import (
	"bytes"
	"testing"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/stack"
	"mosquitonet/internal/transport"
)

// rig is two hosts with transport stacks on one network (an Ethernet unless
// newRigOn says otherwise): a is the client side, b the server side.
type rig struct {
	loop  *sim.Loop
	a, b  *transport.Stack
	aAddr ip.Addr
	bAddr ip.Addr
}

func newRig(t *testing.T, seed int64) *rig {
	t.Helper()
	return newRigOn(t, seed, link.Ethernet())
}

func newRigOn(t *testing.T, seed int64, medium link.Medium) *rig {
	t.Helper()
	loop := sim.New(seed)
	n := link.NewNetwork(loop, "net", medium)
	mk := func(name, addr string) *transport.Stack {
		h := stack.NewHost(loop, name, stack.Config{})
		d := link.NewDevice(loop, name+"-eth0", 0, 0)
		d.Attach(n)
		d.BringUp(nil)
		ifc := h.AddIface("eth0", d, ip.MustParseAddr(addr), ip.MustParsePrefix("10.0.0.0/24"), stack.IfaceOpts{})
		h.ConnectRoute(ifc)
		return transport.NewStack(h)
	}
	a := mk("a", "10.0.0.1")
	b := mk("b", "10.0.0.2")
	loop.RunFor(0)
	return &rig{
		loop: loop, a: a, b: b,
		aAddr: ip.MustParseAddr("10.0.0.1"),
		bAddr: ip.MustParseAddr("10.0.0.2"),
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var r frameReader
	var got []struct {
		typ, flags byte
		body       []byte
	}
	deliver := func(typ, flags byte, body []byte) {
		got = append(got, struct {
			typ, flags byte
			body       []byte
		}{typ, flags, append([]byte(nil), body...)}) // lent for the call
	}

	wire := encodeFrame(nil, 3, 0x5, []byte("hello"))
	wire = encodeFrame(wire, 4, 0, nil)
	// Feed byte by byte: partial frames must wait without corruption.
	for _, b := range wire {
		if !r.Feed([]byte{b}, deliver) {
			t.Fatal("well-formed frame rejected")
		}
	}
	if len(got) != 2 {
		t.Fatalf("frames decoded = %d, want 2", len(got))
	}
	if got[0].typ != 3 || got[0].flags != 0x5 || !bytes.Equal(got[0].body, []byte("hello")) {
		t.Fatalf("frame 0 = %+v", got[0])
	}
	if got[1].typ != 4 || len(got[1].body) != 0 {
		t.Fatalf("frame 1 = %+v", got[1])
	}
}

func TestFrameOversizedRejected(t *testing.T) {
	var r frameReader
	hdr := []byte{1, 0, 0xFF, 0xFF} // 65535 > maxFrameBody
	if r.Feed(hdr, func(byte, byte, []byte) {}) {
		t.Fatal("oversized frame accepted")
	}
}

func TestStringCodec(t *testing.T) {
	b := appendString(nil, "topic/a")
	b = append(b, 0xAA) // trailing byte survives
	s, rest, ok := readString(b)
	if !ok || s != "topic/a" || len(rest) != 1 || rest[0] != 0xAA {
		t.Fatalf("readString = %q %v %v", s, rest, ok)
	}
	if _, _, ok := readString([]byte{0, 5, 'a'}); ok {
		t.Fatal("truncated string accepted")
	}
}
