package stack

import (
	"testing"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/sim"
)

// raceDetector is set by race_test.go when the test binary is built -race.
var raceDetector bool

// TestWarmHopAllocations guards what the packet path allocates once warm:
// the literal the test sends and nothing else. The packets r and b make of
// the frames, their payload buffers, the wire buffers and the flights are
// pooled, forward rewrites the TTL in place, and the frames a and r send
// stay on the stack; before packets were pooled this read 8.
func TestWarmHopAllocations(t *testing.T) {
	l := newLine(t)
	// Under the race detector sync.Pool drops a quarter of its Puts, so the
	// pooled packets and buffers of this path allocate.
	if n := testing.AllocsPerRun(200, func() { l.send(t) }); n > 1 && !raceDetector {
		t.Errorf("warm host-router-host packet allocates %.1f objects, want the sender's literal only", n)
	}

	// One hop record through the event queue and the postroute hop.
	loop := sim.New(1)
	h := NewHost(loop, "h", Config{})
	out := 0
	wire := h.AddVirtualIface("wire", func(*ip.Packet, ip.Addr) { out++ })
	pkt := &ip.Packet{Header: ip.Header{Protocol: lineProto, Dst: ip.Addr{10, 0, 0, 2}}}
	hop := func() {
		h.scheduleHop(time.Microsecond, hopPostroute, wire, pkt, pkt.Dst)
		loop.Step()
	}
	hop()
	if n := testing.AllocsPerRun(200, hop); n != 0 {
		t.Errorf("warm Schedule+Step through a hop record allocates %.1f objects, want 0", n)
	}
	if out != 202 {
		t.Errorf("%d of 202 hops reached the interface", out)
	}
}
