package testbed

import (
	"fmt"
	"strings"
	"time"

	"mosquitonet/internal/scenario"
)

// The sweep experiment: generate N randomized-but-valid scenarios from
// the sweep-base template and run each through the generic scenario
// runner. A (seed, n) pair fully determines the variants and their
// outcomes, so BENCH_sweep.json is a byte-stable regression surface over
// a far wider slice of the mobility state space than the hand-written
// itineraries cover.

// SweepResult is the full sweep: one ScenarioRows per variant, in
// generation order.
type SweepResult struct {
	Rows []ScenarioRows
	*Export
}

func (r *SweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SWEEP: %d randomized scenarios\n", len(r.Rows))
	fmt.Fprintf(&b, "  %-16s %6s %6s %6s %8s %7s %12s\n",
		"scenario", "sent", "recv", "lost", "windows", "faults", "worst-blkout")
	for _, rows := range r.Rows {
		f := rows.Flows[0]
		var worst time.Duration
		for _, w := range f.Windows {
			if d := time.Duration(w.BlackoutNS); d > worst {
				worst = d
			}
		}
		fmt.Fprintf(&b, "  %-16s %6d %6d %6d %8d %7d %12v\n",
			rows.Scenario, f.PacketsSent, f.PacketsReceived, f.PacketsLost,
			len(f.Windows), len(rows.Faults), worst.Round(time.Millisecond))
	}
	return b.String()
}

// RunSweep generates n variants of the sweep-base scenario under seed and
// runs each one. The variant's own run also uses seed: the point is a
// deterministic spread of itineraries, not seed diversity.
func RunSweep(seed int64, n int) (*SweepResult, error) {
	base, err := Scenario("sweep-base")
	if err != nil {
		return nil, err
	}
	variants, err := scenario.GenerateSweep(base, seed, n)
	if err != nil {
		return nil, err
	}

	res := &SweepResult{Export: &Export{Experiment: "sweep", Seed: seed}}
	for _, sp := range variants {
		sr, err := RunScenarioProbe(seed, sp)
		if err != nil {
			return nil, fmt.Errorf("sweep %s: %w", sp.Name, err)
		}
		if len(sr.Rows.Flows) == 0 {
			return nil, fmt.Errorf("sweep %s: no probe flow scored", sp.Name)
		}
		// A sweep variant must not lose packets outside its attributed
		// windows: un-attributed loss means a fault or handoff escaped its
		// span, which is a simulator defect, not scenario noise. One
		// straggler per window is tolerated — a probe sent just before the
		// grace boundary can die inside the outage without attributing.
		f := sr.Rows.Flows[0]
		attributed := 0
		for _, w := range f.Windows {
			attributed += w.PacketsLost
		}
		if f.PacketsLost > attributed+len(f.Windows) {
			return nil, fmt.Errorf("sweep %s: %d packets lost but only %d attributed to %d windows",
				sp.Name, f.PacketsLost, attributed, len(f.Windows))
		}
		res.Rows = append(res.Rows, sr.Rows)
		res.Export.Snapshots = append(res.Export.Snapshots, sr.Export.Snapshots...)
	}
	res.Export.Rows = res.Rows
	return res, nil
}
