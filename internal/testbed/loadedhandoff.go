package testbed

import (
	"fmt"
	"strings"
	"time"

	"mosquitonet/internal/app"
	"mosquitonet/internal/metrics"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/stats"
	"mosquitonet/internal/trace"
)

// The loaded-handoff observatory replays the Figure-5 five-move roaming
// itinerary — the same one RunHandoff measures with a bare UDP probe —
// under a sustained application mix:
//
//   - an MQTT-style broker on the department correspondent, with the
//     mobile host publishing QoS 1 telemetry on several topics (open-loop,
//     fixed rate) to a subscriber on the campus correspondent, and the
//     campus host publishing QoS 1 commands back to the mobile host;
//   - an HTTP-style server on the department correspondent, with the
//     mobile host running one open-loop and one closed-loop request flow.
//
// Every message carries a sequence number into a stats.FlowTracker, and
// each root handoff span becomes an attribution window, so the export
// answers the question the bare probe cannot: what does a handoff cost
// real, TCP-carried application traffic — per flow, per discipline, per
// move? Because the transport never gives up and the app layer never
// retransmits, QoS 1 messages in flight across a handoff arrive exactly
// once; the run fails loudly if that conformance breaks.
//
// The experiment is single-loop: worker counts shard other experiments,
// never this one, so the export is byte-identical across -workers values.

// The experiment shape — broker and server ports, flow counts, rates,
// payload sizes, and the drain bound — lives in the loadedhandoff
// scenario spec (testdata/scenarios/loadedhandoff.json).

// LoadedWindowRow scores one flow against one handoff window: the standard
// disruption report plus the delivered volume and goodput inside the
// grace-extended window.
type LoadedWindowRow struct {
	stats.DisruptionReport
	DeliveredInWindow int `json:"delivered_in_window"`
	// ThroughputBps is the flow's goodput across the grace-extended window
	// in bits per second of application payload (integer, for byte-stable
	// JSON).
	ThroughputBps int64 `json:"throughput_bps"`
}

// LoadedFlowRow is one flow's full accounting.
type LoadedFlowRow struct {
	Flow  string `json:"flow"`
	Proto string `json:"proto"` // "mqtt-qos1" or "http"
	Model string `json:"model"` // "open-loop" or "closed-loop"

	PacketsSent     int `json:"packets_sent"`
	PacketsReceived int `json:"packets_received"`
	PacketsLost     int `json:"packets_lost"`
	Reorders        int `json:"reorders"`
	Duplicates      int `json:"duplicates"`

	BaselineLatencyNS int64 `json:"baseline_latency_ns"`
	MeanLatencyNS     int64 `json:"mean_latency_ns"`
	P99LatencyNS      int64 `json:"p99_latency_ns"`
	MaxLatencyNS      int64 `json:"max_latency_ns"`

	// ThroughputBps is whole-run goodput in payload bits per second.
	ThroughputBps int64 `json:"throughput_bps"`

	Handoffs []LoadedWindowRow `json:"handoffs"`
}

// LoadedHandoffRows is the machine-readable result table.
type LoadedHandoffRows struct {
	GraceNS         int64 `json:"grace_ns"`
	QoS1ExactlyOnce bool  `json:"qos1_exactly_once"`

	BrokerStats     app.BrokerStats     `json:"broker"`
	HTTPServerStats app.HTTPServerStats `json:"http_server"`

	DroppedEvents uint64 `json:"dropped_events"`
	DroppedSpans  uint64 `json:"dropped_spans"`

	Flows []LoadedFlowRow `json:"flows"`
}

// LoadedHandoffResult is the full loaded-handoff run.
type LoadedHandoffResult struct {
	Rows   LoadedHandoffRows
	Tracer *trace.Tracer
	*Export
}

func (r *LoadedHandoffResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "LOADEDHANDOFF: roaming under pub/sub + request/response load (%v grace)\n", HandoffGrace)
	fmt.Fprintf(&b, "QoS 1 exactly-once across handoffs: %v\n", r.Rows.QoS1ExactlyOnce)
	fmt.Fprintf(&b, "%-18s %-10s %-12s %6s %6s %5s %12s %12s %10s\n",
		"flow", "proto", "model", "sent", "recv", "lost", "p99-latency", "max-latency", "goodput")
	for _, f := range r.Rows.Flows {
		fmt.Fprintf(&b, "%-18s %-10s %-12s %6d %6d %5d %12v %12v %8dbps\n",
			f.Flow, f.Proto, f.Model, f.PacketsSent, f.PacketsReceived, f.PacketsLost,
			time.Duration(f.P99LatencyNS).Round(time.Microsecond),
			time.Duration(f.MaxLatencyNS).Round(time.Microsecond),
			f.ThroughputBps)
	}
	if len(r.Rows.Flows) > 0 {
		b.WriteString("worst-hit flow per handoff window:\n")
		b.WriteString(formatWorstWindows(r.Rows.Flows))
	}
	return b.String()
}

// formatWorstWindows renders, for each handoff window, the flow that lost
// the most (ties to the longest blackout).
func formatWorstWindows(flows []LoadedFlowRow) string {
	var b strings.Builder
	for w := range flows[0].Handoffs {
		worst := 0
		for i := 1; i < len(flows); i++ {
			cand, best := flows[i].Handoffs[w], flows[worst].Handoffs[w]
			if cand.PacketsLost > best.PacketsLost ||
				(cand.PacketsLost == best.PacketsLost && cand.BlackoutNS > best.BlackoutNS) {
				worst = i
			}
		}
		hw := flows[worst].Handoffs[w]
		fmt.Fprintf(&b, "  %-20s %-18s lost=%d blackout=%v spike=%v delivered=%d\n",
			hw.Kind, flows[worst].Flow, hw.PacketsLost,
			time.Duration(hw.BlackoutNS).Round(time.Microsecond),
			time.Duration(hw.MaxLatencySpikeNS).Round(time.Microsecond),
			hw.DeliveredInWindow)
	}
	return b.String()
}

// RunLoadedHandoff runs the loadedhandoff scenario spec — topology,
// traffic mix and itinerary all come from it — and returns the per-flow,
// per-handoff disruption scoring.
func RunLoadedHandoff(seed int64) (*LoadedHandoffResult, error) {
	spec, err := Scenario("loadedhandoff")
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

	rows := LoadedHandoffRows{
		GraceNS:         int64(HandoffGrace),
		QoS1ExactlyOnce: true,
		BrokerStats:     run.Broker,
		HTTPServerStats: run.HTTPServer,
		DroppedEvents:   tb.Tracer.Dropped(),
		DroppedSpans:    tb.Tracer.DroppedSpans(),
	}
	for _, f := range run.Flows {
		flow := f.Tracker
		sent, received, lost, reorders := flow.Totals()
		dups, _ := flow.Anomalies()
		if f.Proto == "mqtt-qos1" && (dups != 0 || lost != 0) {
			rows.QoS1ExactlyOnce = false
		}
		lat := flow.LatencySeries()
		row := LoadedFlowRow{
			Flow:              flow.Name(),
			Proto:             f.Proto,
			Model:             f.Model,
			PacketsSent:       sent,
			PacketsReceived:   received,
			PacketsLost:       lost,
			Reorders:          reorders,
			Duplicates:        dups,
			BaselineLatencyNS: int64(flow.Baseline()),
			MeanLatencyNS:     int64(lat.Mean()),
			P99LatencyNS:      int64(lat.Percentile(99)),
			MaxLatencyNS:      int64(lat.Max()),
			ThroughputBps:     goodputBps(received, f.Size, experimentSpan(flow)),
		}
		for _, rep := range flow.Analyze(run.Windows, HandoffGrace) {
			lo := sim.Time(rep.StartNS).Add(-HandoffGrace)
			hi := sim.Time(rep.EndNS).Add(HandoffGrace)
			delivered := flow.ReceivedBetween(lo, hi)
			row.Handoffs = append(row.Handoffs, LoadedWindowRow{
				DisruptionReport:  rep,
				DeliveredInWindow: delivered,
				ThroughputBps:     goodputBps(delivered, f.Size, hi.Sub(lo)),
			})
		}
		rows.Flows = append(rows.Flows, row)
	}

	res := &LoadedHandoffResult{Rows: rows, Tracer: tb.Tracer}
	res.Export = &Export{
		Experiment: "loadedhandoff",
		Seed:       seed,
		Snapshots:  []*metrics.Snapshot{tb.SnapshotMetrics("loadedhandoff")},
		Rows:       res.Rows,
	}
	return res, nil
}

// goodputBps converts delivered messages of size bytes over span to bits
// per second, in integer arithmetic for byte-stable exports.
func goodputBps(delivered, size int, span time.Duration) int64 {
	if span <= 0 {
		return 0
	}
	bits := int64(delivered) * int64(size) * 8
	return bits * int64(time.Second) / int64(span)
}

// experimentSpan is the flow's active interval: first send to last arrival.
func experimentSpan(f *stats.FlowTracker) time.Duration {
	first, last, ok := f.Span()
	if !ok {
		return 0
	}
	return last.Sub(first)
}
