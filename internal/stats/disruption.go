package stats

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"mosquitonet/internal/sim"
)

// FlowTracker follows one sequence-numbered probe flow end to end: the
// sender reports every transmission with Sent, the receiver every arrival
// with Received, and the tracker derives the disruption metrics the
// handover literature cares about — loss, latency spikes over the flow's
// baseline, and reordering depth — attributable to specific time windows
// (handoff spans).
//
// Every producer stamps consecutive sequence numbers: the first Sent sets
// the base, and each later one repeats a number already sent (ignored) or
// is the next one — a Sent that skips a number is a programming error and
// panics. Duplicate or unknown arrivals are counted but otherwise ignored.
// The tracker assumes Sent and Received are called in simulation order
// (non-decreasing timestamps), which any single-loop probe guarantees.
type FlowTracker struct {
	name    string
	first   uint64       // sequence number of packets[0]
	packets []flowPacket // indexed by seq - first

	arrivals  []sim.Time // receive instants in arrival order
	highSeq   uint64     // highest sequence seen by the receiver
	gotAny    bool
	reorders  int
	maxDepth  uint64
	duplicate int
	unknown   int
}

type flowPacket struct {
	sentAt       sim.Time
	recvAt       sim.Time
	received     bool
	reorderDepth uint64 // how far behind the highest-seen seq it arrived
}

// NewFlowTracker creates a tracker for the named flow.
func NewFlowTracker(name string) *FlowTracker {
	return &FlowTracker{name: name}
}

// Name returns the flow name.
func (f *FlowTracker) Name() string { return f.name }

// Sent records a transmission: the first sets the base sequence number,
// a repeat is ignored, and anything but the next number panics.
func (f *FlowTracker) Sent(seq uint64, at sim.Time) {
	n := uint64(len(f.packets))
	if n == 0 {
		f.first = seq
	} else if seq-f.first < n {
		return
	} else if seq != f.first+n {
		panic(fmt.Sprintf("stats: flow %s sent seq %d, want %d (sequence numbers are consecutive)", f.name, seq, f.first+n))
	}
	f.packets = append(f.packets, flowPacket{sentAt: at})
}

// Received records an arrival.
func (f *FlowTracker) Received(seq uint64, at sim.Time) {
	i := seq - f.first // wraps past len for a number below the base
	if i >= uint64(len(f.packets)) {
		f.unknown++
		return
	}
	p := &f.packets[i]
	if p.received {
		f.duplicate++
		return
	}
	p.received = true
	p.recvAt = at
	f.arrivals = append(f.arrivals, at)
	if f.gotAny && seq < f.highSeq {
		f.reorders++
		p.reorderDepth = f.highSeq - seq
		if p.reorderDepth > f.maxDepth {
			f.maxDepth = p.reorderDepth
		}
	} else {
		f.highSeq = seq
	}
	f.gotAny = true
}

// Totals returns flow-wide counts: packets sent, received, lost (sent and
// never received), and received out of order.
func (f *FlowTracker) Totals() (sent, received, lost, reorders int) {
	sent = len(f.packets)
	received = len(f.arrivals)
	return sent, received, sent - received, f.reorders
}

// Baseline returns the flow's undisturbed one-way latency estimate: the
// median over every received packet. Zero when nothing arrived.
func (f *FlowTracker) Baseline() time.Duration {
	lat := make([]time.Duration, 0, len(f.packets))
	for _, p := range f.packets {
		if p.received {
			lat = append(lat, p.recvAt.Sub(p.sentAt))
		}
	}
	if len(lat) == 0 {
		return 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat[len(lat)/2]
}

// Anomalies returns the arrival-side oddities: duplicate arrivals (a
// sequence number received twice) and unknown arrivals (a sequence number
// never reported sent). Both must be zero for an exactly-once delivery
// claim to hold.
func (f *FlowTracker) Anomalies() (duplicates, unknown int) {
	return f.duplicate, f.unknown
}

// Span returns the flow's active interval — first transmission to last
// arrival. ok is false when nothing was sent or nothing arrived.
func (f *FlowTracker) Span() (first, last sim.Time, ok bool) {
	if len(f.packets) == 0 || len(f.arrivals) == 0 {
		return 0, 0, false
	}
	// Arrivals are recorded in simulation order, so the last is the latest.
	return f.packets[0].sentAt, f.arrivals[len(f.arrivals)-1], true
}

// ReceivedBetween counts arrivals in [lo, hi] — the delivered volume of a
// time slice, which divided by the slice length is the flow's goodput there.
func (f *FlowTracker) ReceivedBetween(lo, hi sim.Time) int {
	n := 0
	for _, at := range f.arrivals {
		if at >= lo && at <= hi {
			n++
		}
	}
	return n
}

// LatencySeries returns the one-way latency of every received packet, in
// send order, as a Series for histogram/percentile reporting.
func (f *FlowTracker) LatencySeries() *Series {
	s := NewSeries(f.name + "/latency")
	for _, p := range f.packets {
		if p.received {
			s.Add(p.recvAt.Sub(p.sentAt))
		}
	}
	return s
}

// Window is one interval to attribute disruption to — in practice a root
// handoff span's [Start, End].
type Window struct {
	Kind  string
	Start sim.Time
	End   sim.Time
}

// DisruptionReport quantifies what one handoff cost the flow.
type DisruptionReport struct {
	Kind       string `json:"kind"`
	StartNS    int64  `json:"start_ns"`
	EndNS      int64  `json:"end_ns"`
	DurationNS int64  `json:"duration_ns"`

	// PacketsSent counts probe packets sent inside the (grace-extended)
	// window; PacketsLost those among them that never arrived.
	PacketsSent int `json:"packets_sent"`
	PacketsLost int `json:"packets_lost"`

	// BlackoutNS is the longest gap between consecutive arrivals
	// overlapping the window — the receiver's dead air.
	BlackoutNS int64 `json:"blackout_ns"`

	// MaxLatencyNS is the worst one-way latency of a packet sent inside
	// the window; MaxLatencySpikeNS is its excess over the flow baseline.
	MaxLatencyNS      int64 `json:"max_latency_ns"`
	MaxLatencySpikeNS int64 `json:"max_latency_spike_ns"`

	// ReorderCount counts packets arriving out of order inside the window,
	// MaxReorderDepth how far (in sequence numbers) the worst one trailed.
	ReorderCount    int    `json:"reorder_count"`
	MaxReorderDepth uint64 `json:"max_reorder_depth"`
}

// Analyze attributes the flow's disruption to the given windows. A packet
// belongs to a window when it was sent within [Start-grace, End+grace]:
// handoff damage starts before the switch completes (packets already in
// flight) and trails after it (retransmission, route convergence), so a
// small grace keeps the attribution honest. Windows are processed in the
// order given; overlapping windows double-count, which is the caller's
// choice to make.
func (f *FlowTracker) Analyze(windows []Window, grace time.Duration) []DisruptionReport {
	baseline := f.Baseline()
	out := make([]DisruptionReport, 0, len(windows))
	for _, w := range windows {
		lo, hi := w.Start.Add(-grace), w.End.Add(grace)
		r := DisruptionReport{
			Kind:       w.Kind,
			StartNS:    int64(w.Start),
			EndNS:      int64(w.End),
			DurationNS: int64(w.End.Sub(w.Start)),
		}
		for _, p := range f.packets {
			if p.sentAt < lo || p.sentAt > hi {
				continue
			}
			r.PacketsSent++
			if !p.received {
				r.PacketsLost++
				continue
			}
			lat := p.recvAt.Sub(p.sentAt)
			if int64(lat) > r.MaxLatencyNS {
				r.MaxLatencyNS = int64(lat)
				if spike := lat - baseline; spike > 0 {
					r.MaxLatencySpikeNS = int64(spike)
				}
			}
			if p.reorderDepth > 0 {
				r.ReorderCount++
				if p.reorderDepth > r.MaxReorderDepth {
					r.MaxReorderDepth = p.reorderDepth
				}
			}
		}
		r.BlackoutNS = int64(f.blackout(w.Start, w.End))
		out = append(out, r)
	}
	return out
}

// blackout returns the longest inter-arrival gap overlapping [start, end].
// The gap before the first arrival is anchored at the first transmission;
// the gap after the last arrival extends to the last transmission, so a
// handoff the flow never recovered from still shows its dead air.
func (f *FlowTracker) blackout(start, end sim.Time) time.Duration {
	if len(f.packets) == 0 {
		return 0
	}
	bounds := make([]sim.Time, 0, len(f.arrivals)+2)
	bounds = append(bounds, f.packets[0].sentAt)
	bounds = append(bounds, f.arrivals...)
	bounds = append(bounds, f.packets[len(f.packets)-1].sentAt)
	var worst time.Duration
	for i := 1; i < len(bounds); i++ {
		gapLo, gapHi := bounds[i-1], bounds[i]
		if gapHi <= gapLo {
			continue
		}
		if gapHi < start || gapLo > end {
			continue // gap does not overlap the window
		}
		if gap := gapHi.Sub(gapLo); gap > worst {
			worst = gap
		}
	}
	return worst
}

// String renders the reports as the fixed-width table experiments print.
func FormatDisruption(reports []DisruptionReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %10s %6s %6s %12s %12s %8s\n",
		"handoff", "start", "sent", "lost", "blackout", "max-spike", "reorder")
	for _, r := range reports {
		fmt.Fprintf(&b, "%-20s %10v %6d %6d %12v %12v %8d\n",
			r.Kind, time.Duration(r.StartNS), r.PacketsSent, r.PacketsLost,
			time.Duration(r.BlackoutNS), time.Duration(r.MaxLatencySpikeNS), r.ReorderCount)
	}
	return b.String()
}
