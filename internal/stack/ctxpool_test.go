package stack

import (
	"testing"
	"time"
	"unsafe"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/pipeline"
	"mosquitonet/internal/sim"
)

// raceDetector is set by race_test.go when the test binary is built -race.
var raceDetector bool

// TestPacketContextSizeClass keeps the filter's context in the allocator's
// 64-byte class. Only a host with a forward filter has one.
func TestPacketContextSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(PacketContext{}); got > 64 {
		t.Fatalf("PacketContext is %d bytes, want at most 64", got)
	}
}

// TestFilterContextIsReused: a host without a forward filter carries no
// context; one with a filter shows it the same record on every run, and a
// filter that (wrongly) keeps the pointer reads it zeroed once its run is
// over, never describing another packet.
func TestFilterContextIsReused(t *testing.T) {
	loop := sim.New(1)
	a, b, router := twoSubnetTopology(t, loop)
	got := collect(b.host)
	if router.filterCtx != nil {
		t.Fatal("a host without a filter carries a context")
	}
	var kept []*PacketContext
	router.SetForwardFilter(func(ctx *PacketContext) pipeline.Verdict {
		if ctx.Pkt == nil || ctx.In == nil || ctx.Out == nil || ctx.NextHop.IsUnspecified() {
			t.Errorf("filter shown %+v", *ctx)
		}
		kept = append(kept, ctx)
		if string(ctx.Pkt.Payload) == "refused" {
			return ctx.Reject("refused")
		}
		return pipeline.Accept
	})
	for _, payload := range []string{"one", "refused", "two"} {
		a.host.Output(udpPacket("0.0.0.0", "10.0.1.2", payload))
	}
	loop.RunFor(time.Second)
	if len(*got) != 2 || len(kept) != 3 {
		t.Fatalf("delivered %d, filter ran %d times; want 2 and 3", len(*got), len(kept))
	}
	for i, c := range kept {
		if c != kept[0] {
			t.Errorf("run %d was shown a new context", i)
		}
		if *c != (PacketContext{}) {
			t.Errorf("kept context reads %+v after its run, want zeroed", *c)
		}
	}
}

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
