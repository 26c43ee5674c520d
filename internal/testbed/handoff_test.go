package testbed

import (
	"testing"
	"time"

	"mosquitonet/internal/scenario"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/trace"
)

func TestHandoffSpanTreeAndReports(t *testing.T) {
	res, err := RunHandoff(1996)
	if err != nil {
		t.Fatal(err)
	}

	// The itinerary yields six root windows: the initial home attach, two
	// cold switches out, the address switch, the hot switch, and the cold
	// switch home.
	if got := len(res.Rows.Handoffs); got != 6 {
		t.Fatalf("want 6 handoff windows, got %d: %+v", got, res.Rows.Handoffs)
	}

	// Cold switches through the radio must cost the flow something.
	lost := 0
	for _, r := range res.Rows.Handoffs {
		lost += r.PacketsLost
	}
	if lost == 0 {
		t.Error("no packets attributed lost across five moves")
	}
	if res.Rows.PacketsSent == 0 || res.Rows.PacketsReceived == 0 {
		t.Fatalf("flow did not run: %+v", res.Rows)
	}
	if res.Rows.PacketsLost < lost {
		t.Errorf("window-attributed loss %d exceeds flow total %d", lost, res.Rows.PacketsLost)
	}

	// The span tree must connect link change -> registration -> tunnel:
	// every registration attempt hangs off a handoff root, and tunnel
	// establishment hangs off a registration attempt.
	spans := res.Tracer.Spans()
	byID := make(map[uint64]trace.Span, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	rootOf := func(sp trace.Span) trace.Span {
		for sp.Parent != 0 {
			sp = byID[sp.Parent]
		}
		return sp
	}
	regs := res.Tracer.FindSpans("reg.attempt")
	if len(regs) == 0 {
		t.Fatal("no reg.attempt spans recorded")
	}
	for _, sp := range regs {
		if root := rootOf(sp); !scenario.HandoffRootKinds(root.Kind) {
			t.Errorf("reg.attempt %d roots at %q, not a handoff window", sp.ID, root.Kind)
		}
	}
	tunnels := res.Tracer.FindSpans("tunnel.established")
	if len(tunnels) == 0 {
		t.Fatal("no tunnel.established spans recorded")
	}
	for _, sp := range tunnels {
		if sp.Parent == 0 || byID[sp.Parent].Kind != "reg.attempt" {
			t.Errorf("tunnel.established %d not parented to a reg.attempt", sp.ID)
		}
	}
	if len(res.Tracer.FindSpans("link.up")) == 0 {
		t.Error("no link.up spans recorded")
	}
	if len(res.Tracer.FindSpans("handoff.dhcp")) == 0 {
		t.Error("no handoff.dhcp spans recorded")
	}
}

// TestCountAnomalies runs RunHandoff's anomaly scan over a hand-built
// trace: every reg.timeout event counts; seven drop.noroute spans within
// the burst window do not, the eighth does, an open one does not yet, and
// the window starts afresh after it fires.
func TestCountAnomalies(t *testing.T) {
	loop := sim.New(1)
	tr := trace.New(loop)
	expect := func(what string, want int) {
		t.Helper()
		if got := countAnomalies(tr); got != want {
			t.Fatalf("%s: %d anomalies, want %d", what, got, want)
		}
	}
	drops := func(n int, gap time.Duration) {
		for range n {
			loop.RunFor(gap)
			tr.StartSpan("r", "drop.noroute").Done()
		}
	}

	tr.Record("mh", "reg.request.sent", "")
	tr.Record("mh", "reg.timeout", "tries=3")
	expect("a timeout", 1)

	// A drop that falls out of the window, then seven inside it, then one
	// still open.
	drops(1, 0)
	loop.RunFor(noRouteBurstWindow)
	drops(7, 10*time.Millisecond)
	tr.StartSpan("r", "drop.noroute")
	expect("a stale drop, seven in the window and an open one", 1)
	drops(1, 10*time.Millisecond)
	expect("the eighth", 2)

	// The window restarts: the seven before the burst no longer count.
	drops(7, 10*time.Millisecond)
	expect("seven after a burst", 2)
	drops(1, 10*time.Millisecond)
	expect("eight after a burst", 3)
}
