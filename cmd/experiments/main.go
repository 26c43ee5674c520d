// Command experiments regenerates every table and figure of the paper's
// evaluation, plus the ablations indexed in DESIGN.md, and prints them in
// the paper's own presentation (loss histograms per Figure 6, mean (std
// dev) rows per Figure 7).
//
// Alongside the human-readable output, each experiment writes a
// machine-readable export — BENCH_<exp>.json with the seed and the
// per-scenario metrics snapshots (registration latency histograms, tunnel
// encap/decap counters, per-device link statistics, ...) — and F7
// additionally writes BENCH_f7_timeline.jsonl, its registration timeline
// as one JSON event per line. The handoff observatory writes two more:
// BENCH_handoff_spans.jsonl (the run's span record) and
// BENCH_handoff_trace.json (the same spans as a Chrome trace-event file,
// loadable in chrome://tracing or https://ui.perfetto.dev). Exports are
// byte-identical across runs with the same seed.
//
// Experiments are registered in a dispatch table; -list enumerates them
// with the flags each one consumes. "-exp all" runs every entry marked
// for the batch; experiments with ad-hoc inputs (scenario, sweep) run
// only when named explicitly.
//
// Usage:
//
//	experiments [-list] [-seed N] [-exp all|<name>] [per-experiment flags] [-json dir]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"mosquitonet/internal/testbed"
)

// opts holds every flag value.
var opts struct {
	seed    int64
	jsonDir string
	workers int

	scaleFleets string
	sweepN      int
	scenario    string
}

// The sample counts the checked-in exports are made with.
const (
	rttSamples   = 20 // RTT and A1 measurements
	a2Iterations = 5  // handoffs per A2/A4 variant
)

// experiment is one dispatch-table entry.
type experiment struct {
	name  string
	desc  string
	inAll bool   // runs under -exp all (requires byte-reproducible output)
	flags string // the flags the entry reads, for -list
	run   func() (testbed.Result, error)
}

// experiments is the dispatch table, in "all"-batch execution order.
var experiments = []experiment{
	{name: "e1", inAll: true,
		desc: "same-subnet care-of address switch: loss from a 10 ms UDP stream (§4)",
		run:  func() (testbed.Result, error) { return testbed.RunE1(opts.seed) }},
	{name: "f6", inAll: true,
		desc: "Figure 6: device switching overhead, cold/hot x wired/wireless",
		run:  func() (testbed.Result, error) { return testbed.RunF6(opts.seed) }},
	{name: "f7", inAll: true,
		desc: "Figure 7: registration time-line, mean (std dev) per step",
		run:  func() (testbed.Result, error) { return testbed.RunF7(opts.seed) }},
	{name: "handoff", inAll: true,
		desc: "handoff disruption observatory (spans, anomaly scan, per-window scoring)",
		run:  func() (testbed.Result, error) { return testbed.RunHandoff(opts.seed) }},
	{name: "loadedhandoff", inAll: true,
		desc: "roaming itinerary under MQTT + HTTP application load",
		run:  func() (testbed.Result, error) { return testbed.RunLoadedHandoff(opts.seed) }},
	{name: "rtt", inAll: true,
		desc: "path round-trip times, radio and wired (§4)",
		run:  func() (testbed.Result, error) { return testbed.RunRTT(opts.seed, rttSamples) }},
	{name: "tput", inAll: true,
		desc: "radio throughput: saturating UDP through the reverse tunnel (§4)",
		run:  func() (testbed.Result, error) { return testbed.RunThroughput(opts.seed, 50, 1000) }},
	{name: "a1", inAll: true,
		desc: "ablation: triangle route vs. tunnel, and the transit-filter fallback (§3.2)",
		run:  func() (testbed.Result, error) { return testbed.RunA1(opts.seed, rttSamples) }},
	{name: "a2", inAll: true,
		desc: "ablation: collocated care-of vs. foreign-agent forwarding (§5.1)",
		run:  func() (testbed.Result, error) { return testbed.RunA2(opts.seed, a2Iterations) }},
	{name: "a4", inAll: true,
		desc: "ablation: handoff strategies, cold / hot / simultaneous bindings",
		run:  func() (testbed.Result, error) { return testbed.RunA4(opts.seed, a2Iterations) }},
	{name: "a3", inAll: true,
		desc: "ablation: home-agent scalability vs. fleet size",
		run:  func() (testbed.Result, error) { return testbed.RunA3(opts.seed, []int{1, 8, 32, 64}) }},
	{name: "scale", inAll: true, flags: "-scale-fleets, -workers",
		desc: "roaming-fleet scale (sharded; byte-identical at any -workers)",
		run: func() (testbed.Result, error) {
			fleets, err := parseFleets(opts.scaleFleets)
			if err != nil {
				return nil, err
			}
			return testbed.RunScaleWorkers(opts.seed, fleets, opts.workers)
		}},
	// Inputs are ad-hoc (any catalog scenario), so not part of "all".
	{name: "scenario", flags: "-scenario",
		desc: "run one catalog scenario through the generic runner",
		run: func() (testbed.Result, error) {
			spec, err := testbed.Scenario(opts.scenario)
			if err != nil {
				return nil, err
			}
			return testbed.RunScenarioProbe(opts.seed, spec)
		}},
	// Deterministic but sized by -n, so not part of "all"; CI pins its
	// artifact against bench/BENCH_sweep.json explicitly.
	{name: "sweep", flags: "-n",
		desc: "seeded randomized-scenario sweep over the sweep-base template",
		run:  func() (testbed.Result, error) { return testbed.RunSweep(opts.seed, opts.sweepN) }},
}

func main() {
	list := flag.Bool("list", false, "list the registered experiments and their flags")
	exp := flag.String("exp", "all", "experiment to run: all, or one of the -list entries")
	flag.Int64Var(&opts.seed, "seed", 1996, "simulation seed (results are deterministic per seed)")
	flag.IntVar(&opts.workers, "workers", 1, "worker goroutines for sharded experiments (results are identical at any count)")
	flag.StringVar(&opts.jsonDir, "json", "bench", "directory for BENCH_*.json exports (empty to disable)")
	flag.StringVar(&opts.scaleFleets, "scale-fleets", "10,100,1000,10000,100000",
		"comma-separated fleet sizes for the scale experiment")
	flag.StringVar(&opts.scenario, "scenario", "faultdemo", "catalog scenario name for -exp scenario")
	flag.IntVar(&opts.sweepN, "n", 8, "number of generated sweep scenarios (min 8 for the pinned artifact)")
	flag.Parse()

	if *list {
		fmt.Println("experiments (* runs under -exp all):")
		for _, e := range experiments {
			batch := " "
			if e.inAll {
				batch = "*"
			}
			fmt.Printf("  %s %-14s %s", batch, e.name, e.desc)
			if e.flags != "" {
				fmt.Printf(" [%s]", e.flags)
			}
			fmt.Println()
		}
		return
	}

	ran := false
	for _, e := range experiments {
		if *exp == e.name || (*exp == "all" && e.inAll) {
			ran = true
			res, err := e.run()
			exitOn(err)
			fmt.Println(res)
			for _, a := range res.Artifacts() {
				writeArtifact(opts.jsonDir, a)
			}
		}
	}
	if !ran {
		names := make([]string, 0, len(experiments))
		for _, e := range experiments {
			names = append(names, e.name)
		}
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want all, %s)\n", *exp, strings.Join(names, ", "))
		os.Exit(2)
	}
}

// parseFleets splits a comma-separated fleet-size list.
func parseFleets(s string) ([]int, error) {
	var sizes []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad fleet size %q", f)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}

// writeArtifact serializes one export file under dir.
func writeArtifact(dir string, a testbed.Artifact) {
	if dir == "" {
		return
	}
	exitOn(os.MkdirAll(dir, 0o755))
	path := filepath.Join(dir, a.Name)
	f, err := os.Create(path)
	exitOn(err)
	if err := a.Write(f); err != nil {
		f.Close()
		exitOn(err)
	}
	exitOn(f.Close())
	fmt.Printf("wrote %s\n\n", path)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
