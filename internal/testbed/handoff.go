package testbed

import (
	"fmt"
	"strings"
	"time"

	"mosquitonet/internal/metrics"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/stats"
	"mosquitonet/internal/trace"
)

// The handoff observatory runs the mnet roaming itinerary — home, the
// department Ethernet, the radio, a hot switch back to the wire, home
// again — under full span tracing, with a one-way sequence-numbered probe
// flowing correspondent -> mobile host throughout. Each root handoff span
// becomes an attribution window for the flow's disruption metrics (loss,
// blackout, latency spike over baseline, reordering), and a scan of the
// finished trace counts anomalies (registration timeouts, no-route drop
// bursts). Everything derives from virtual time and seeded
// randomness, so BENCH_handoff.json is byte-identical across same-seed
// runs at any worker count — the experiment is single-loop, workers never
// touch it.

// Handoff experiment shape.
const (
	// HandoffGrace extends each attribution window: damage starts with
	// packets already in flight when the switch begins and trails through
	// route convergence after it completes.
	HandoffGrace = 500 * time.Millisecond
	// handoffSettle is the steady-state dwell between moves.
	handoffSettle = 5 * time.Second

	// A burst of route-less drops this dense marks a blackout anomaly.
	noRouteBurst       = 8
	noRouteBurstWindow = 500 * time.Millisecond
)

// HandoffRows is the machine-readable result table of the handoff
// experiment: flow-wide totals plus one disruption report per handoff
// window. Struct-typed so the JSON field order is fixed.
type HandoffRows struct {
	ProbeIntervalNS   int64  `json:"probe_interval_ns"`
	GraceNS           int64  `json:"grace_ns"`
	BaselineLatencyNS int64  `json:"baseline_latency_ns"`
	PacketsSent       int    `json:"packets_sent"`
	PacketsReceived   int    `json:"packets_received"`
	PacketsLost       int    `json:"packets_lost"`
	Reorders          int    `json:"reorders"`
	Anomalies         int    `json:"flight_dumps"` // countAnomalies over the run's trace
	DroppedEvents     uint64 `json:"dropped_events"`
	DroppedSpans      uint64 `json:"dropped_spans"`

	Handoffs []stats.DisruptionReport `json:"handoffs"`
}

// HandoffResult is the full handoff observatory run.
type HandoffResult struct {
	Rows HandoffRows
	Flow *stats.FlowTracker
	// Tracer retains the run's full event and span record for export
	// (spans JSONL, Chrome trace) after the testbed is closed.
	Tracer *trace.Tracer
	*Export
}

func (r *HandoffResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "HANDOFF: disruption observatory (%v one-way probe, %v grace)\n",
		time.Duration(r.Rows.ProbeIntervalNS), HandoffGrace)
	fmt.Fprintf(&b, "flow: %d sent, %d received, %d lost, %d reordered; baseline one-way latency %v\n",
		r.Rows.PacketsSent, r.Rows.PacketsReceived, r.Rows.PacketsLost, r.Rows.Reorders,
		time.Duration(r.Rows.BaselineLatencyNS).Round(time.Microsecond))
	b.WriteString(stats.FormatDisruption(r.Rows.Handoffs))
	fmt.Fprintf(&b, "anomalies: %d (registration timeouts, bursts of %d no-route drops within %v)\n",
		r.Rows.Anomalies, noRouteBurst, noRouteBurstWindow)
	return b.String()
}

// Artifacts adds the run's span record and the same spans as a Chrome
// trace-event file.
func (r *HandoffResult) Artifacts() []Artifact {
	return append(r.Export.Artifacts(),
		Artifact{Name: "BENCH_handoff_spans.jsonl", Write: r.Tracer.WriteSpansJSONL},
		Artifact{Name: "BENCH_handoff_trace.json", Write: r.Tracer.WriteChromeTrace})
}

// RunHandoff runs the handoff scenario spec under the observatory and
// returns the per-handoff disruption reports: compile, let the world run
// its own spec, score the one probe flow and count the trace's anomalies.
func RunHandoff(seed int64) (*HandoffResult, error) {
	spec, err := Scenario("handoff")
	if err != nil {
		return nil, err
	}
	tb, err := NewFromSpec(seed, spec)
	if err != nil {
		return nil, err
	}
	run, err := tb.World.Run()
	if err != nil {
		return nil, err
	}
	probe := run.Flows[0]
	flow := probe.Tracker
	sent, received, lost, reorders := flow.Totals()
	res := &HandoffResult{
		Rows: HandoffRows{
			ProbeIntervalNS:   int64(probe.Interval),
			GraceNS:           int64(HandoffGrace),
			BaselineLatencyNS: int64(flow.Baseline()),
			PacketsSent:       sent,
			PacketsReceived:   received,
			PacketsLost:       lost,
			Reorders:          reorders,
			Anomalies:         countAnomalies(tb.Tracer),
			DroppedEvents:     tb.Tracer.Dropped(),
			DroppedSpans:      tb.Tracer.DroppedSpans(),
			Handoffs:          flow.Analyze(run.Windows, HandoffGrace),
		},
		Flow:   flow,
		Tracer: tb.Tracer,
	}
	res.Export = &Export{
		Experiment: "handoff",
		Seed:       seed,
		Snapshots:  []*metrics.Snapshot{tb.SnapshotMetrics("handoff")},
		Rows:       res.Rows,
	}
	return res, nil
}

// countAnomalies counts what is worth a look in a finished trace: every
// event or closed span whose kind starts with "reg.timeout" (a
// registration that exhausted its retries), and every noRouteBurst
// "drop.noroute" spans that close within noRouteBurstWindow of one another,
// counting afresh after each burst.
func countAnomalies(t *trace.Tracer) int {
	n := len(t.Find("reg.timeout"))
	var drops []sim.Time
	for _, s := range t.FindSpans("reg.timeout", "drop.noroute") {
		switch {
		case s.Open(): // not over yet, so not an anomaly yet
		case strings.HasPrefix(s.Kind, "reg.timeout"):
			n++
		default:
			drops = append(drops, s.End)
		}
	}
	// Drop spans are instants, so start order is closing order.
	first := 0 // drops[first:i+1] is the burst window ending at drops[i]
	for i, at := range drops {
		for at.Sub(drops[first]) > noRouteBurstWindow {
			first++
		}
		if i+1-first == noRouteBurst {
			n++
			first = i + 1
		}
	}
	return n
}
