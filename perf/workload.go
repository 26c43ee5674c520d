package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"mosquitonet/internal/scenario"
	"mosquitonet/internal/sim"
)

//go:embed workloads/*.json
var workloadFiles embed.FS

// workloadNames lists the workloads in the order every report uses.
func workloadNames() []string {
	return []string{"fleet_roam", "fleet_roam_par", "handoff_storm", "campus_app", "fleet_resident"}
}

// parSuffix marks the parallel twin of a fleet workload: the same file,
// run on parWorkers() shard workers. It is the one switch for the worker
// count.
const parSuffix = "_par"

// workload is one perf/workloads/<name>.json: the inputs of one benchmark
// workload. Exactly one of Fleet and Campus is set.
type workload struct {
	Name string `json:"name"`
	// SetupBuilds is how many worlds a child builds to time
	// set-up; sized so the builds total at least half a second. The first
	// one built is the one that runs.
	SetupBuilds int `json:"setup_builds"`
	// RefEvery is how many run slices make one segment, after which the
	// reference kernel runs; sized so a segment takes tens of milliseconds.
	RefEvery int         `json:"ref_every"`
	Fleet    *fleetSpec  `json:"fleet,omitempty"`
	Campus   *campusSpec `json:"campus,omitempty"`
}

// loadWorkload reads a workload file. A name ending in parSuffix loads the
// file of the name without it and turns the fleet's worker pool on.
func loadWorkload(name string) (*workload, error) {
	base, par := strings.CutSuffix(name, parSuffix)
	data, err := workloadFiles.ReadFile("workloads/" + base + ".json")
	if err != nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	w := &workload{}
	if err := dec.Decode(w); err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	if w.Name != base || w.SetupBuilds < 1 || w.RefEvery < 1 || (w.Fleet == nil) == (w.Campus == nil) {
		return nil, fmt.Errorf("workload %s: needs a matching name, setup_builds and ref_every >= 1, and exactly one of fleet and campus", name)
	}
	if par && w.Fleet == nil {
		return nil, fmt.Errorf("workload %s: only a fleet has a parallel twin", name)
	}
	if w.Fleet != nil {
		if err := w.Fleet.validate(); err != nil {
			return nil, fmt.Errorf("workload %s: %w", name, err)
		}
		w.Fleet.parallel = par
	}
	w.Name = name
	return w, nil
}

// errNoParallel is why a parallel workload is skipped on a one-CPU machine:
// run on one worker it would be fleet_roam under another name.
var errNoParallel = errors.New("skipped: a parallel run needs at least 2 CPUs")

// runnable reports whether the workload can be measured on this machine.
func (w *workload) runnable() error {
	if w.Fleet != nil && w.Fleet.parallel && parWorkers() < 2 {
		return errNoParallel
	}
	return nil
}

// shrink cuts the workload to the size the tests run: at most 64 hosts and
// 2 virtual seconds of fleet, or the first switches of the campus
// itinerary, and one build.
func (w *workload) shrink() {
	w.SetupBuilds = 1
	if f := w.Fleet; f != nil {
		f.Active = 64 * f.Active / f.Hosts
		f.Hosts, f.Shards = 64, 4
		if f.Active < 16 {
			f.Active = 16
		}
		if f.Window.D() > 2*time.Second {
			f.Window = scenario.Duration(2 * time.Second)
		}
	}
	if c := w.Campus; c != nil {
		c.shortSteps = 10 // out to the department, one address switch, home again
	}
}

// workers is how many shard workers the workload's run uses.
func (w *workload) workers() int {
	if w.Fleet != nil {
		return w.Fleet.workers()
	}
	return 1
}

// build constructs the workload's world from seed, unrun.
func (w *workload) build(seed int64, rec *recorder) (world, error) {
	if w.Fleet != nil {
		return buildFleet(seed, w.Fleet, rec)
	}
	return buildCampus(seed, w.Campus, rec)
}

// sliceLen is the virtual length of one run slice. Every run, traced or
// not, advances in these steps, so tracing changes no epoch boundary and
// the traced run's counts equal the untraced run's.
const sliceLen = 250 * time.Millisecond

// segment is one timed stretch of work and the reference kernel run that
// followed it, both in CPU seconds (see workClock and refKernel.run).
type segment struct {
	WorkS float64 `json:"work_s"`
	RefS  float64 `json:"ref_s"`
}

// workClock reads the clock a stretch of work on the given number of shard
// workers is timed on. Both choices are CPU clocks, which are not charged
// for the time the hypervisor steals. On one worker it is the calling
// thread's: the simulation runs on that thread from start to end, so on an
// undisturbed machine its CPU time is the run's wall time (background GC
// runs beside it on an idle core, and is left out of both). On several it
// is the whole process's divided by the worker count: CPU seconds per
// worker, which is the wall time of a run whose workers never wait for each
// other. It includes what dispatching work and waking workers costs, and
// the collector, but not the time a worker sits idle at a barrier; that
// shows in sim.worker_busy_share and bench.run_wall_s, on the wall clock.
func workClock(workers int) time.Duration {
	if workers > 1 {
		return processCPU() / time.Duration(workers)
	}
	return threadCPU()
}

// segmentTimer is an open segment.
type segmentTimer struct {
	workers int
	start   time.Duration
}

func startSegment(workers int) segmentTimer { return segmentTimer{workers, workClock(workers)} }

// stop ends the segment and runs the kernel after it.
func (t segmentTimer) stop(ref *refKernel) segment {
	s := segment{WorkS: (workClock(t.workers) - t.start).Seconds()}
	s.RefS = ref.run().Seconds()
	return s
}

// runClock times a run. Each slice gets a span; every RefEvery slices
// close a segment, after which the reference kernel runs once. Segment j
// does the same simulated work in every repeat of a seed, so the harness
// can compare like with like across repeats (see normalized). A nil
// *runClock just runs the steps.
type runClock struct {
	rec     *recorder
	ref     *refKernel
	workers int
	every   int
	open    int // slices in the open segment
	timer   segmentTimer
	segs    []segment
}

// step runs one slice of the run (or the drain) under a span called name.
func (c *runClock) step(name string, fn func()) {
	if c == nil {
		fn()
		return
	}
	if c.open == 0 {
		c.timer = startSegment(c.workers)
	}
	c.rec.begin(name)
	fn()
	c.rec.end()
	if c.open++; c.open >= c.every {
		c.closeSegment()
	}
}

// closeSegment ends the open segment, if any, and runs the kernel.
func (c *runClock) closeSegment() {
	if c.open == 0 {
		return
	}
	c.segs = append(c.segs, c.timer.stop(c.ref))
	c.open = 0
}

// flowTotal is one application flow's accounting at the end of the drain.
type flowTotal struct {
	Name     string `json:"name"`
	Sent     uint64 `json:"sent"`
	Received uint64 `json:"received"`
}

// outcome is what a world reports after its run and drain: everything in
// it derives from virtual time and seeded randomness only.
type outcome struct {
	Counts []count
	Flows  []flowTotal
	// Handoffs holds the virtual time from each switch call to its done
	// callback, for the switches that completed without error, sorted.
	Handoffs        []time.Duration
	HandoffsStarted int
	VirtualEnd      sim.Time
	// Violations lists the workload invariants that do not hold.
	Violations []string
	// Workers and WorkerBusy describe the shard worker pool (1 and zero
	// for a single-loop world).
	Workers    int
	WorkerBusy time.Duration
}

// attempted counts the operations the workload started: application sends
// and handoffs. failed counts those that never completed.
func (o *outcome) attempted() (attempted, failed int) {
	for _, f := range o.Flows {
		attempted += int(f.Sent)
		failed += int(f.Sent - f.Received)
	}
	attempted += o.HandoffsStarted
	failed += o.HandoffsStarted - len(o.Handoffs)
	return attempted, failed
}

// world is a built workload. run executes the fixed virtual window in
// sliceLen steps on clk, drain lets in-flight work finish with the
// generators stopped, collect reads the counters and checks the
// invariants, close releases process-global registrations.
type world interface {
	run(clk *runClock) error
	drain()
	collect(rec *recorder) outcome
	close()
}

// percentile returns the p-th percentile (nearest rank) of sorted.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p/100*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
