package main

import (
	"fmt"
	"math"
	"os"
	"strings"
	"time"
)

// outDir is where a run leaves trace.jsonl and the CPU profiles, relative
// to the benchmark's directory.
const outDir = "out"

// driverTime is how long each layer driver measures for.
const driverTime = 100 * time.Millisecond

// layerReport is one workload's per-layer metrics with the runs behind
// them.
type layerReport struct {
	values []layerValue
	plain  *childResult // the untraced run the counts come from
	errs   []string
	spans  []span // the traced run's
}

// perLayer produces the workload's per-layer metrics except the driver
// costs: exact counts and runtime figures from an untraced run, CPU shares
// and slice times from a traced run, and for a fleet the same inputs at
// the other worker count for the parallel speed-up.
func (l *ledger) perLayer(name string, seed int64) (*layerReport, error) {
	w, err := loadWorkload(name)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	traced, _, err := l.spawn(name, seed, true)
	if err != nil {
		return nil, err
	}
	plain, _, err := l.spawn(name, seed, false)
	if err != nil {
		return nil, err
	}
	rep := &layerReport{plain: plain, spans: traced.Spans}
	rep.errs = append(append(rep.errs, plain.Violations...), traced.Violations...)
	if traced.Fingerprint != plain.Fingerprint {
		rep.errs = append(rep.errs, fmt.Sprintf("traced run's fingerprint %s differs from the untraced run's %s", traced.Fingerprint, plain.Fingerprint))
	}

	// A sharded world is run once more at the other worker count — its
	// parallel twin, or the workload it is the twin of: the same inputs
	// must give the same fingerprint, and the ratio of the two wall times is
	// the parallel speed-up. A single-loop world has no workers to vary: its
	// speed-up is 1 by definition. A one-CPU machine has no second worker:
	// there the figure is skipped (NaN), not faked on one.
	speedup := 1.0
	if w.Fleet != nil && parWorkers() < 2 {
		speedup = math.NaN()
		fmt.Fprintf(os.Stderr, "perf: %s: sim.par_speedup %v\n", name, errNoParallel)
	} else if w.Fleet != nil {
		twin, isPar := strings.CutSuffix(name, parSuffix)
		if !isPar {
			twin = name + parSuffix
		}
		other, _, err := l.spawn(twin, seed, false)
		if err != nil {
			return nil, err
		}
		if other.Fingerprint != plain.Fingerprint {
			rep.errs = append(rep.errs, fmt.Sprintf("fingerprint at %d workers %s differs from %s at %d", other.Workers, other.Fingerprint, plain.Fingerprint, plain.Workers))
		}
		one, par := plain, other
		if isPar {
			one, par = other, plain
		}
		speedup = one.RunWallS / par.RunWallS
	}

	rep.values = layerValues(plain, traced, speedup)
	return rep, nil
}

// layerValues assembles the per-layer metrics of one workload from its
// untraced run, its traced run and its parallel speed-up.
func layerValues(plain, traced *childResult, speedup float64) []layerValue {
	var vals []layerValue
	add := func(name, unit string, v float64) { vals = append(vals, layerValue{name, unit, v}) }
	byName := map[string]float64{}
	for _, c := range plain.Counts {
		byName[c.Name] = float64(c.Value)
		if c.Name != "stack.route_hits" && c.Name != "stack.route_misses" {
			add(c.Name, "count", float64(c.Value))
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	run := runSeconds([]*childResult{plain}) // one run: noisier than a measurement's
	add("link.fanout", "ratio", ratio(byName["link.delivered"], byName["link.transmitted"]))
	add("stack.route_hit_share", "ratio", ratio(byName["stack.route_hits"], byName["stack.route_hits"]+byName["stack.route_misses"]))
	add("sim.ns_per_event", "ns", ratio(run*1e9, byName["sim.events"]))
	add("sim.events_per_s", "1/s", ratio(byName["sim.events"], run))
	add("sim.worker_busy_share", "ratio", plain.WorkerBusyShare)
	if !math.IsNaN(speedup) {
		add("sim.par_speedup", "ratio", speedup)
	}
	add("runtime.mallocs", "count", float64(plain.Mallocs))
	add("runtime.mallocs_per_event", "count", ratio(float64(plain.Mallocs), byName["sim.events"]))
	add("runtime.gc_cycles", "count", float64(plain.GCCycles))
	add("runtime.gc_pause_ms", "ms", plain.GCPauseMS)
	add("runtime.cpu_s", "s", plain.CPUS)

	for _, layer := range cpuLayers() {
		metric := layer + ".cpu_share"
		if layer == "runtime.gc" {
			metric = "runtime.gc_cpu_share"
		}
		add(metric, "ratio", traced.CPUShares[layer])
	}
	var sliceMS []float64
	for _, d := range durations(traced.Spans, "run.slice") {
		sliceMS = append(sliceMS, d.Seconds()*1e3)
	}
	add("sim.slice_ms_p50", "ms", quantile(sliceMS, 0.5))
	add("sim.slice_ms_p90", "ms", quantile(sliceMS, 0.9))

	add("bench.trace_overhead_share", "ratio", runSeconds([]*childResult{traced})/run-1)
	add("bench.run_wall_s", "s", plain.RunWallS)
	slowdown := make([]float64, len(plain.Segments))
	for i, s := range plain.Segments {
		slowdown[i] = s.RefS / refNominal.Seconds()
	}
	add("bench.ref_slowdown", "ratio", median(slowdown))
	return vals
}

// benchValues are the per-layer metrics about the benchmark itself, read
// from the ledger once every child of the invocation has run.
func (l *ledger) benchValues() []layerValue {
	return []layerValue{
		{"bench.repeats_discarded", "count", float64(l.discarded)},
		{"bench.steal_share", "ratio", l.stealShare()},
	}
}

// driverValues runs the layer drivers, recording one span each.
func driverValues(minTime time.Duration) ([]layerValue, []span, error) {
	rec := newRecorder("drivers")
	vals, err := runDrivers(minTime, rec)
	return vals, rec.spans, err
}
