package stats

import (
	"strings"
	"testing"
	"time"

	"mosquitonet/internal/sim"
)

func at(d time.Duration) sim.Time { return sim.Time(d) }

// A well-behaved flow: constant 10ms latency, no loss, no reordering.
func TestFlowTrackerCleanFlow(t *testing.T) {
	f := NewFlowTracker("ch->mh")
	for i := 0; i < 10; i++ {
		send := time.Duration(i*20) * time.Millisecond
		f.Sent(uint64(i), at(send))
		f.Received(uint64(i), at(send+10*time.Millisecond))
	}
	sent, recv, lost, reorders := f.Totals()
	if sent != 10 || recv != 10 || lost != 0 || reorders != 0 {
		t.Fatalf("totals: sent=%d recv=%d lost=%d reorders=%d", sent, recv, lost, reorders)
	}
	if f.Baseline() != 10*time.Millisecond {
		t.Fatalf("baseline = %v", f.Baseline())
	}
	reports := f.Analyze([]Window{{Kind: "handoff.cold", Start: at(50 * time.Millisecond), End: at(90 * time.Millisecond)}}, 0)
	if len(reports) != 1 {
		t.Fatalf("reports = %d", len(reports))
	}
	r := reports[0]
	// Sends at 60ms and 80ms fall inside the window.
	if r.PacketsSent != 2 || r.PacketsLost != 0 || r.MaxLatencySpikeNS != 0 || r.ReorderCount != 0 {
		t.Fatalf("clean flow must report no disruption: %+v", r)
	}
	// Steady 20ms arrival spacing is the worst "blackout".
	if r.BlackoutNS != int64(20*time.Millisecond) {
		t.Fatalf("blackout = %v", time.Duration(r.BlackoutNS))
	}
}

// A handoff window in which packets die, one straggler arrives very late,
// and a reordered pair lands.
func TestFlowTrackerDisruptedFlow(t *testing.T) {
	f := NewFlowTracker("ch->mh")
	ms := func(n int) sim.Time { return at(time.Duration(n) * time.Millisecond) }

	// Pre-handoff: seq 0..4, sent every 20ms from t=0, 10ms latency.
	for i := 0; i <= 4; i++ {
		f.Sent(uint64(i), ms(i*20))
		f.Received(uint64(i), ms(i*20+10))
	}
	// Handoff window [95ms, 160ms]: seq 5 (t=100) and 6 (t=120) lost,
	// seq 7 (t=140) delayed to t=200 (60ms latency).
	f.Sent(5, ms(100))
	f.Sent(6, ms(120))
	f.Sent(7, ms(140))
	// Post-handoff: seq 8 (t=160) overtakes 7; 9 is clean.
	f.Sent(8, ms(160))
	f.Received(8, ms(170))
	f.Received(7, ms(200)) // arrives after 8: reordered, depth 1
	f.Sent(9, ms(180))
	f.Received(9, ms(190))

	sent, recv, lost, reorders := f.Totals()
	if sent != 10 || recv != 8 || lost != 2 || reorders != 1 {
		t.Fatalf("totals: sent=%d recv=%d lost=%d reorders=%d", sent, recv, lost, reorders)
	}
	if f.Baseline() != 10*time.Millisecond {
		t.Fatalf("baseline = %v", f.Baseline())
	}

	reports := f.Analyze([]Window{{Kind: "handoff.cold", Start: ms(95), End: ms(160)}}, 20*time.Millisecond)
	r := reports[0]
	// Grace [75ms, 180ms] covers sends at 80..180 → seq 4..9.
	if r.PacketsSent != 6 {
		t.Fatalf("packets sent in window = %d, want 6", r.PacketsSent)
	}
	if r.PacketsLost != 2 {
		t.Fatalf("packets lost = %d, want 2", r.PacketsLost)
	}
	if r.MaxLatencyNS != int64(60*time.Millisecond) || r.MaxLatencySpikeNS != int64(50*time.Millisecond) {
		t.Fatalf("latency: max=%v spike=%v",
			time.Duration(r.MaxLatencyNS), time.Duration(r.MaxLatencySpikeNS))
	}
	if r.ReorderCount != 1 || r.MaxReorderDepth != 1 {
		t.Fatalf("reorder: count=%d depth=%d", r.ReorderCount, r.MaxReorderDepth)
	}
	// Receiver dead air: last pre-window arrival t=90, next arrival t=170.
	if r.BlackoutNS != int64(80*time.Millisecond) {
		t.Fatalf("blackout = %v, want 80ms", time.Duration(r.BlackoutNS))
	}

	table := FormatDisruption(reports)
	if !strings.Contains(table, "handoff.cold") || !strings.Contains(table, "80ms") {
		t.Fatalf("table:\n%s", table)
	}
}

// A flow that never recovers: the blackout extends to the last send.
func TestFlowTrackerTerminalBlackout(t *testing.T) {
	f := NewFlowTracker("x")
	ms := func(n int) sim.Time { return at(time.Duration(n) * time.Millisecond) }
	f.Sent(0, ms(0))
	f.Received(0, ms(10))
	for i := 1; i <= 5; i++ {
		f.Sent(uint64(i), ms(i*20)) // all lost
	}
	r := f.Analyze([]Window{{Kind: "handoff.cold", Start: ms(15), End: ms(100)}}, 0)[0]
	if r.PacketsLost != 5 {
		t.Fatalf("lost = %d", r.PacketsLost)
	}
	// Dead air from the arrival at 10ms to the final send at 100ms.
	if r.BlackoutNS != int64(90*time.Millisecond) {
		t.Fatalf("blackout = %v, want 90ms", time.Duration(r.BlackoutNS))
	}
}

// TestFlowTrackerConsecutiveSequences pins the producer contract the
// tracker indexes by: any first number is the base, a repeated Sent is
// ignored, an arrival outside [base, last sent] is unknown, and a Sent
// that skips a number panics.
func TestFlowTrackerConsecutiveSequences(t *testing.T) {
	ms := func(n int) sim.Time { return at(time.Duration(n) * time.Millisecond) }
	f := NewFlowTracker("x")
	for seq := uint64(1000); seq < 1004; seq++ {
		f.Sent(seq, ms(int(seq-1000)*10))
	}
	f.Sent(1002, ms(50)) // a repeat, not a new packet
	f.Received(1000, ms(5))
	f.Received(1003, ms(35))
	f.Received(999, ms(36))  // below the base
	f.Received(1004, ms(37)) // never sent
	sent, recv, lost, _ := f.Totals()
	if sent != 4 || recv != 2 || lost != 2 {
		t.Fatalf("totals: sent=%d recv=%d lost=%d, want 4/2/2", sent, recv, lost)
	}
	if dups, unknown := f.Anomalies(); dups != 0 || unknown != 2 {
		t.Fatalf("anomalies: dups=%d unknown=%d, want 0/2", dups, unknown)
	}
	if first, _, ok := f.Span(); !ok || first != ms(0) {
		t.Fatalf("span starts at %v (ok=%v); the repeat must not move the first send", first, ok)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("a Sent that skips a number did not panic")
		}
	}()
	f.Sent(1005, ms(60))
}

func TestFlowTrackerEdgeCases(t *testing.T) {
	f := NewFlowTracker("x")
	if f.Baseline() != 0 {
		t.Fatal("empty baseline must be zero")
	}
	if got := f.Analyze([]Window{{Kind: "w", Start: 0, End: at(time.Second)}}, 0); got[0].PacketsSent != 0 || got[0].BlackoutNS != 0 {
		t.Fatalf("empty flow report: %+v", got[0])
	}
	f.Sent(1, at(time.Millisecond))
	f.Sent(1, at(2*time.Millisecond))     // duplicate send ignored
	f.Received(9, at(3*time.Millisecond)) // unknown seq ignored
	f.Received(1, at(4*time.Millisecond))
	f.Received(1, at(5*time.Millisecond)) // duplicate arrival ignored
	sent, recv, lost, _ := f.Totals()
	if sent != 1 || recv != 1 || lost != 0 {
		t.Fatalf("dup/unknown handling: sent=%d recv=%d lost=%d", sent, recv, lost)
	}
}
