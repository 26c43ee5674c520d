package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strings"
)

// suiteRepeats is how many undisturbed repeats the suite wants of each
// workload.
const suiteRepeats = 7

// suiteRun is one complete run of the suite: what -selfcheck compares.
type suiteRun struct {
	endToEnd     map[string]map[string]float64 // workload -> metric -> value
	fingerprints map[string]string
	failures     []string
}

// suiteMain runs the suite once, or twice under -selfcheck, printing every
// metric by name with its unit. It fails if any workload's outputs are
// wrong or, under -selfcheck, if the two runs disagree.
func suiteMain(names []string, seed int64, layersOnly, selfcheck bool) error {
	fmt.Printf("perf: seed %d, %d cpus, gomaxprocs %d, %s, reference kernel nominal %v\n",
		seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), refNominal)
	if layersOnly {
		vals, _, err := driverValues(driverTime)
		if err != nil {
			return err
		}
		printLayers("layer drivers", vals)
		return nil
	}
	first, err := runSuite(names, seed)
	if err != nil {
		return err
	}
	failures := first.failures
	if selfcheck {
		fmt.Println("\nselfcheck: second run of the suite")
		second, err := runSuite(names, seed)
		if err != nil {
			return err
		}
		failures = append(failures, second.failures...)
		failures = append(failures, compareRuns(names, first, second)...)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d failures:\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	return nil
}

func runSuite(names []string, seed int64) (*suiteRun, error) {
	run := &suiteRun{endToEnd: map[string]map[string]float64{}, fingerprints: map[string]string{}}
	drivers, spans, err := driverValues(driverTime)
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		w, err := loadWorkload(name)
		if err != nil {
			return nil, err
		}
		if err := w.runnable(); err != nil {
			fmt.Printf("\n== %s  %v\n", name, err)
			continue
		}
		var l ledger
		m, err := l.measure(name, seed, suiteRepeats, 0)
		if err != nil {
			return nil, err
		}
		pl, err := l.perLayer(name, seed)
		if err != nil {
			return nil, err
		}
		spans = append(spans, pl.spans...)
		run.endToEnd[name], run.fingerprints[name] = m.values, m.repeats[0].Fingerprint
		if pl.plain.Fingerprint != m.repeats[0].Fingerprint {
			pl.errs = append(pl.errs, "the per-layer runs' fingerprint differs from the repeats'")
		}
		attempted, failed := m.repeats[0].Attempted, m.repeats[0].Failed
		for _, e := range append(m.errs, pl.errs...) {
			run.failures = append(run.failures, name+": "+e)
		}
		if failed > 0 {
			run.failures = append(run.failures, fmt.Sprintf("%s: %d of %d operations failed", name, failed, attempted))
		}

		fmt.Printf("\n== %s  seed %d  fingerprint %s\n", name, seed, m.repeats[0].Fingerprint)
		fmt.Printf("   %d repeats, %d discarded from the wall-clock figures for stolen time%s; steal share %.3f; raw run wall %.3f s at %.2fx reference slowdown; %d operations attempted, %d failed\n",
			len(m.repeats), l.discarded, noisyNote(m.noisy), l.stealShare(), m.rawRunWall(), m.refSlowdown(), attempted, failed)
		if l.noStealColumn {
			fmt.Println("   /proc/stat reports no steal column here; no repeat was filtered")
		}
		for _, d := range endToEnd() {
			fmt.Printf("   %-28s %14.6f %-5s lower is better, bound %.0f%%\n", d.name, m.values[d.name], d.unit, 100*d.bound)
		}
		each := make([]float64, len(m.repeats))
		for i, r := range m.repeats {
			each[i] = runSeconds([]*childResult{r})
		}
		fmt.Printf("   run_s of each repeat alone: min %.4f  p25 %.4f  median %.4f  max %.4f  n %d\n",
			quantile(each, 0), quantile(each, 0.25), median(each), quantile(each, 1), len(each))
		printLayers("per layer", append(pl.values, l.benchValues()...))
		printSpans(pl.spans)
	}
	printLayers("layer drivers (the same for every workload)", drivers)
	if err := writeSpans(filepath.Join(outDir, "trace.jsonl"), spans); err != nil {
		return nil, err
	}
	return run, nil
}

func printLayers(title string, vals []layerValue) {
	fmt.Printf("   -- %s\n", title)
	for _, v := range vals {
		fmt.Printf("   %-36s %16.4f %s\n", v.name, v.value, v.unit)
	}
}

// printSpans prints the traced run's phases and their aggregated children:
// total time and self time, which is the total minus the children's.
func printSpans(spans []span) {
	fmt.Println("   -- traced run (ms total, ms self)")
	for _, s := range spans {
		if s.Name == "run.slice" {
			continue
		}
		fmt.Printf("   %-36s %12.3f %12.3f\n", s.Name, s.dur().Seconds()*1e3, selfTime(spans, s).Seconds()*1e3)
	}
}

// compareRuns holds two runs of the suite on one commit against each
// other: simulated metrics and fingerprints must be identical, every other
// metric within its own bound.
func compareRuns(names []string, a, b *suiteRun) []string {
	var failures []string
	fmt.Printf("\n%-16s %-20s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, name := range names {
		if a.endToEnd[name] == nil {
			continue // skipped on this machine
		}
		if a.fingerprints[name] != b.fingerprints[name] {
			failures = append(failures, fmt.Sprintf("%s: fingerprints differ between the two runs", name))
		}
		for _, d := range endToEnd() {
			x, y := a.endToEnd[name][d.name], b.endToEnd[name][d.name]
			diff := math.Abs(y-x) / x
			verdict := "ok"
			if (d.simulated && x != y) || diff > d.bound {
				verdict = "FAIL"
				failures = append(failures, fmt.Sprintf("%s: %s differs by %.1f%% between the two runs (%g vs %g)", name, d.name, 100*diff, x, y))
			}
			fmt.Printf("%-16s %-20s %14.6f %14.6f %8.2f%% %6.0f%% %s\n", name, d.name, x, y, 100*diff, 100*d.bound, verdict)
		}
	}
	return failures
}
