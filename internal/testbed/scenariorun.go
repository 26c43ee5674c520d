package testbed

import (
	"fmt"
	"strings"
	"time"

	"mosquitonet/internal/metrics"
	"mosquitonet/internal/scenario"
	"mosquitonet/internal/stats"
)

// The generic scenario runner: any catalog or generated spec that
// declares an itinerary becomes an experiment. scenario.World.Run plays
// the spec out; every root handoff and fault.* span it returns is an
// attribution window scored against every declared flow. RunSweep and
// the fault-injection scenarios (faultdemo) drive their runs through here.

// ScenarioProbeRow is one probe flow's accounting across a scenario run.
type ScenarioProbeRow struct {
	Flow            string `json:"flow"`
	ProbeIntervalNS int64  `json:"probe_interval_ns"`

	PacketsSent     int `json:"packets_sent"`
	PacketsReceived int `json:"packets_received"`
	PacketsLost     int `json:"packets_lost"`
	Reorders        int `json:"reorders"`

	BaselineLatencyNS int64 `json:"baseline_latency_ns"`

	// Windows holds one disruption report per handoff or fault window, in
	// window start order.
	Windows []stats.DisruptionReport `json:"windows"`
}

// ScenarioRows is the machine-readable outcome of one scenario run.
type ScenarioRows struct {
	Scenario string                 `json:"scenario"`
	GraceNS  int64                  `json:"grace_ns"`
	Faults   []scenario.FaultRecord `json:"faults"`
	Flows    []ScenarioProbeRow     `json:"flows"`
}

// ScenarioResult is one compiled-and-run scenario. World stays readable
// after the run for state inspection (bindings, stats, routes); the
// loop has stopped by the time RunScenarioProbe returns.
type ScenarioResult struct {
	Rows    ScenarioRows
	Testbed *Testbed
	*Export
}

func (r *ScenarioResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SCENARIO %s: %d probe flow(s), %d fault(s), %v grace\n",
		r.Rows.Scenario, len(r.Rows.Flows), len(r.Rows.Faults), time.Duration(r.Rows.GraceNS))
	for _, f := range r.Rows.Faults {
		fmt.Fprintf(&b, "  fault %-18s %-14s [%v, %v]\n", f.Kind, f.Target,
			time.Duration(f.Start).Round(time.Millisecond), time.Duration(f.End).Round(time.Millisecond))
	}
	for _, f := range r.Rows.Flows {
		fmt.Fprintf(&b, "flow %s: %d sent, %d received, %d lost, %d reordered\n",
			f.Flow, f.PacketsSent, f.PacketsReceived, f.PacketsLost, f.Reorders)
		b.WriteString(stats.FormatDisruption(f.Windows))
	}
	return b.String()
}

// RunScenarioProbe compiles spec, lets the world run it, and scores
// every handoff and fault window against every declared flow. The spec
// must declare a non-empty itinerary whose first step attaches the mobile
// host; traffic is optional (a flow-less run still reports its fault
// records).
func RunScenarioProbe(seed int64, spec *scenario.Spec) (*ScenarioResult, error) {
	tb, err := NewFromSpec(seed, spec)
	if err != nil {
		return nil, err
	}

	run, err := tb.World.Run()
	if err != nil {
		return nil, err
	}

	res := &ScenarioResult{
		Rows: ScenarioRows{
			Scenario: spec.Name,
			GraceNS:  int64(HandoffGrace),
			Faults:   run.Faults,
		},
		Testbed: tb,
	}
	for _, f := range run.Flows {
		sent, received, lost, reorders := f.Tracker.Totals()
		res.Rows.Flows = append(res.Rows.Flows, ScenarioProbeRow{
			Flow:              f.Tracker.Name(),
			ProbeIntervalNS:   int64(f.Interval),
			PacketsSent:       sent,
			PacketsReceived:   received,
			PacketsLost:       lost,
			Reorders:          reorders,
			BaselineLatencyNS: int64(f.Tracker.Baseline()),
			Windows:           f.Tracker.Analyze(run.Windows, HandoffGrace),
		})
	}
	res.Export = &Export{
		Experiment: "scenario",
		Seed:       seed,
		Snapshots:  []*metrics.Snapshot{tb.SnapshotMetrics(spec.Name)},
		Rows:       res.Rows,
	}
	return res, nil
}
