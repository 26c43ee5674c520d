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

func (h *Host) ctxFreeLen() (n int) {
	for c := h.ctxFree; c != nil; c = c.free {
		n++
	}
	return n
}

func (h *Host) hopFreeLen() (n int) {
	for r := h.hopFree; r != nil; r = r.free {
		n++
	}
	return n
}

// TestPacketContextSizeClass keeps the context in the allocator's 160-byte
// class. Every host that handles packets keeps two or three warm ones, so a
// 2,000-host fleet is the multiplier: at 168 bytes (the 176 class) perf's
// fleet_roam workload measured +0.06 MB on both run_alloc_mb and
// live_heap_mb.
func TestPacketContextSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(PacketContext{}); got > 160 {
		t.Fatalf("PacketContext is %d bytes, want at most 160", got)
	}
}

// TestChainContextsNest drives the three ways a chain run starts inside
// another on the same host — an INPUT hook re-injecting through Input, a
// protocol handler replying through Output, a Drop whose ICMP error
// observeVerdict sends through Output — and asserts that the outer run's
// context is untouched by the inner one, that a context a hook wrongly kept reads
// zeroed once its run is over, and that every record is back on its free
// list afterwards.
func TestChainContextsNest(t *testing.T) {
	const (
		protoWrapped = ip.Protocol(253) // carries a payload to re-inject
		protoRefused = ip.Protocol(254) // rejected by a PREROUTING policy hook
	)
	loop := sim.New(1)
	h := NewHost(loop, "h", Config{})
	var sent []*ip.Packet
	wire := h.AddVirtualIface("wire", func(pkt *ip.Packet, _ ip.Addr) { sent = append(sent, pkt) })
	self, peer := ip.Addr{10, 0, 0, 1}, ip.Addr{10, 0, 0, 2}
	h.AddLocalAddr(self)
	h.AddDefaultRoute(ip.Unspecified, wire)
	// A route override, so that route misses go through the slot.
	h.SetRouteLookup(h.DefaultRouteLookup)

	var kept []*PacketContext // what a misbehaving hook would hold on to
	nested := 0               // nested runs whose outer context was checked
	intact := func(what string, outer *PacketContext, before PacketContext) {
		t.Helper()
		nested++
		if *outer != before {
			t.Errorf("%s: outer context changed under the nested run:\n got %+v\nwant %+v", what, *outer, before)
		}
	}

	// 1. INPUT hook re-injects the wrapped packet through Input.
	h.Hooks(pipeline.Input).Register(pipeline.Hook[*PacketContext]{
		Name: "unwrap", Priority: PriDecap,
		Fn: func(ctx *PacketContext) pipeline.Verdict {
			kept = append(kept, ctx)
			if ctx.Pkt.Protocol != protoWrapped {
				return pipeline.Accept
			}
			before := *ctx
			h.Input(ctx.In, &ip.Packet{Header: ip.Header{Protocol: ip.ProtoUDP, Src: peer, Dst: self}, Payload: []byte("inner")})
			intact("Input from an INPUT hook", ctx, before)
			return pipeline.Stolen
		},
	})
	// 2. The UDP handler replies through Output while INPUT's demux hook —
	// and so the INPUT context the hook above saw — is still running.
	h.RegisterHandler(ip.ProtoUDP, func(_ *Iface, pkt *ip.Packet) {
		outer := kept[len(kept)-1]
		before := *outer
		if outer.Pkt != pkt || outer.stage != pipeline.Input {
			t.Fatalf("handler ran outside the INPUT context it was demuxed from: %+v", before)
		}
		// Invalidate first, so that the nested run misses the decision
		// cache and takes a route query as well.
		h.InvalidateRoutes()
		if err := h.Output(&ip.Packet{Header: ip.Header{Protocol: ip.ProtoUDP, Dst: pkt.Src}, Payload: []byte("echo")}); err != nil {
			t.Fatal(err)
		}
		intact("Output from a protocol handler", outer, before)
	})
	// 3. A policy hook rejects; observeVerdict sends the ICMP error through
	// Output once the PREROUTING run returns. An OUTPUT hook looks at the
	// rejected context from inside that nested run.
	var refused *PacketContext
	var refusedBefore PacketContext
	h.Hooks(pipeline.Prerouting).Register(pipeline.Hook[*PacketContext]{
		Name: "refuse", Priority: PriFirst,
		Fn: func(ctx *PacketContext) pipeline.Verdict {
			kept = append(kept, ctx)
			if ctx.Pkt.Protocol != protoRefused {
				return pipeline.Accept
			}
			v := ctx.Reject("refused")
			refused, refusedBefore = ctx, *ctx
			return v
		},
	})
	h.Hooks(pipeline.Output).Register(pipeline.Hook[*PacketContext]{
		Name: "watch-icmp", Priority: PriFirst,
		Fn: func(ctx *PacketContext) pipeline.Verdict {
			if refused != nil && ctx.Pkt.Protocol == ip.ProtoICMP {
				intact("ICMP error from observeVerdict", refused, refusedBefore)
				refused = nil
			}
			return pipeline.Accept
		},
	})

	script := func() {
		kept, sent = kept[:0], sent[:0]
		h.Input(wire, &ip.Packet{Header: ip.Header{Protocol: protoWrapped, Src: peer, Dst: self}, Payload: []byte("outer")})
		h.Input(wire, &ip.Packet{Header: ip.Header{Protocol: protoRefused, Src: peer, Dst: self}, Payload: []byte("nope")})
		loop.RunFor(time.Second)
	}
	script()
	if nested != 3 {
		t.Fatalf("%d nested runs checked, want 3 (re-inject, reply, ICMP error)", nested)
	}
	if len(sent) != 2 || sent[0].Protocol != ip.ProtoICMP || sent[1].Protocol != ip.ProtoUDP {
		t.Fatalf("wire carried %v, want the ICMP error then the UDP echo", sent)
	}
	if st := h.Stats(); st.Delivered != 1 || st.DropFilter != 1 || st.Sent != 2 {
		t.Fatalf("stats %+v, want 1 delivered, 1 filtered, 2 sent", st)
	}
	for i, c := range kept {
		got := *c
		got.free = nil // the list link is all a released record holds
		if got != (PacketContext{}) {
			t.Errorf("kept context %d reads %+v after release, want zeroed", i, got)
		}
	}

	// Every record is back, and a second pass finds them all: the lists
	// neither leak nor grow.
	warmCtx, warmHop := h.ctxFreeLen(), h.hopFreeLen()
	if warmCtx != 2 || warmHop != 2 {
		t.Errorf("warm free lists hold %d contexts, %d hops; want 2 (the deepest nesting), 2 (the most in flight)", warmCtx, warmHop)
	}
	script()
	if c, r := h.ctxFreeLen(), h.hopFreeLen(); c != warmCtx || r != warmHop {
		t.Errorf("free lists after a second pass: %d/%d, want the warm %d/%d", c, r, warmCtx, warmHop)
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

	// One hop record through the event queue and the POSTROUTING chain.
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
