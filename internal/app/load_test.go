package app

import (
	"testing"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/stats"
)

func TestPubFlowOpenLoop(t *testing.T) {
	r := newRig(t, 1)
	if _, err := NewBroker(r.b, ip.Unspecified, testBrokerPort, "broker"); err != nil {
		t.Fatal(err)
	}
	sub := connectClient(t, r, "sink")
	pub := connectClient(t, r, "telemetry")

	tracker := stats.NewFlowTracker("telemetry/0")
	sub.Subscribe("telemetry/0", 1, SinkHandler(r.loop, tracker), nil)
	r.loop.RunFor(time.Second)

	flow := NewPubFlow(pub, tracker, "telemetry/0", 100*time.Millisecond, 1, 64)
	flow.Start()
	r.loop.RunFor(2 * time.Second)
	flow.Stop()
	r.loop.RunFor(time.Second)

	sent, received, lost, _ := tracker.Totals()
	if sent < 18 || sent > 21 {
		t.Fatalf("open loop sent = %d, want ~20", sent)
	}
	if lost != 0 || received != sent {
		t.Fatalf("sent=%d received=%d lost=%d", sent, received, lost)
	}
	if flow.Sent() != uint64(sent) {
		t.Fatalf("flow.Sent=%d tracker=%d", flow.Sent(), sent)
	}
	if s := tracker.LatencySeries(); s.N() != received || s.Mean() <= 0 {
		t.Fatalf("latency series: n=%d mean=%v", s.N(), s.Mean())
	}
}

func TestReqFlowClosedLoop(t *testing.T) {
	r := newRig(t, 1)
	startEcho(t, r)
	c := dialHTTP(t, r, "cli")

	tracker := stats.NewFlowTracker("req/closed")
	flow := NewReqFlow(c, tracker, "/work", 100*time.Millisecond, true, 32)
	flow.Start()
	r.loop.RunFor(2 * time.Second)
	flow.Stop()
	r.loop.RunFor(time.Second)

	sent, received, lost, _ := tracker.Totals()
	if sent == 0 || lost != 0 || received != sent {
		t.Fatalf("sent=%d received=%d lost=%d", sent, received, lost)
	}
	// Closed loop: never more than one request outstanding, so the count is
	// bounded by interval (think) + RTT per request.
	if sent > 20 {
		t.Fatalf("closed loop overran: sent=%d", sent)
	}
}

func TestReqFlowOpenLoopBacklogs(t *testing.T) {
	r := newRig(t, 1)
	startEcho(t, r)
	c := dialHTTP(t, r, "cli")

	tracker := stats.NewFlowTracker("req/open")
	flow := NewReqFlow(c, tracker, "/work", 50*time.Millisecond, false, 32)
	flow.Start()
	r.loop.RunFor(time.Second)
	flow.Stop()
	r.loop.RunFor(time.Second)

	sent, received, lost, _ := tracker.Totals()
	if sent < 18 || sent > 21 {
		t.Fatalf("open loop sent = %d, want ~20", sent)
	}
	if lost != 0 || received != sent {
		t.Fatalf("sent=%d received=%d lost=%d", sent, received, lost)
	}
	// The link keeps up, so the send buffer never held more than a request.
	if peak := c.conn.Stats().SendBufPeak; peak == 0 || peak > 100 {
		t.Fatalf("SendBufPeak = %d on a link that keeps up, want one ~70-byte request", peak)
	}

	// The same discipline offering 1.6 Mbit/s to a 512 kbit/s link: the
	// schedule does not slow down and Write does not refuse, so the backlog
	// piles up in the client's send buffer, where Stats shows it, and
	// everything is still answered once the schedule stops.
	slow := link.Ethernet()
	slow.BitRate = 512_000
	r = newRigOn(t, 1, slow)
	startEcho(t, r)
	c = dialHTTP(t, r, "cli")
	tracker = stats.NewFlowTracker("req/open-slow")
	flow = NewReqFlow(c, tracker, "/work", 20*time.Millisecond, false, 4096)
	flow.Start()
	r.loop.RunFor(2 * time.Second)
	flow.Stop()
	if sent, _, _, _ := tracker.Totals(); sent < 98 || sent > 101 {
		t.Fatalf("open loop sent = %d against a slow link, want ~100", sent)
	}
	backlog := c.conn.Buffered()
	if backlog < 200_000 || c.conn.Stats().SendBufPeak < backlog {
		t.Fatalf("Buffered = %d, SendBufPeak = %d after offering three times the link rate for 2 s", backlog, c.conn.Stats().SendBufPeak)
	}
	r.loop.RunFor(30 * time.Second)
	if sent, received, lost, _ := tracker.Totals(); lost != 0 || received != sent {
		t.Fatalf("slow link: sent=%d received=%d lost=%d", sent, received, lost)
	}
	if c.conn.Buffered() != 0 {
		t.Fatalf("Buffered = %d after the backlog drained", c.conn.Buffered())
	}
}

func TestReceivedBetween(t *testing.T) {
	f := stats.NewFlowTracker("x")
	for i := 1; i <= 5; i++ {
		at := sim.Time(i) * sim.Time(time.Second)
		f.Sent(uint64(i), at)
		f.Received(uint64(i), at.Add(10*time.Millisecond))
	}
	lo := sim.Time(2 * time.Second)
	hi := sim.Time(4*time.Second + 20*time.Millisecond)
	if n := f.ReceivedBetween(lo, hi); n != 3 {
		t.Fatalf("ReceivedBetween = %d, want 3", n)
	}
	if n := f.ReceivedBetween(sim.Time(9*time.Second), sim.Time(10*time.Second)); n != 0 {
		t.Fatalf("ReceivedBetween empty slice = %d", n)
	}
}
