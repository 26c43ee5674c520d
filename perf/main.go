// Command perf is the repository's benchmark: the host-time ledger. It
// measures, from outside the simulator, what five workloads cost in wall
// time, memory and allocation, what each layer contributes, and the
// simulated handoff time that must not drift. See README.md.
//
// The driver contract (BENCHMARK.json) runs it as
//
//	go run -C perf . --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the JSON object on the last line of standard output. Without
// --workload it runs the whole suite and prints every metric by name:
//
//	go run -C perf .                      # five workloads, traced runs, layer drivers
//	go run -C perf . -only campus_app     # one workload
//	go run -C perf . -layers              # layer drivers only
//	go run -C perf . -selfcheck           # the suite twice, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload under the driver contract and print one JSON object")
		seed         = flag.Int64("seed", 1996, "workload seed; reaches only the workload generators")
		seconds      = flag.Int("seconds", 20, "wall seconds to measure for, per workload")
		traced       = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run and the layer drivers")
		only         = flag.String("only", "", "suite: run only this workload")
		layersOnly   = flag.Bool("layers", false, "suite: run only the layer drivers")
		selfcheck    = flag.Bool("selfcheck", false, "run the suite twice and compare the two")
		child        = flag.Bool("child", false, "internal: run -workload once in this process and print its result")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	switch {
	case *child:
		fatal(childMain(*workloadName, *seed, *traced == 1))
	case *workloadName != "":
		fatal(contractMain(*workloadName, *seed, time.Duration(*seconds)*time.Second, *traced == 1))
	default:
		names := workloadNames()
		if *only != "" {
			names = []string{*only}
		}
		fatal(suiteMain(names, *seed, *layersOnly, *selfcheck))
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		os.Exit(1)
	}
}

// childMain is the -child mode: one workload, once, result on stdout.
func childMain(name string, seed int64, traced bool) error {
	w, err := loadWorkload(name)
	if err != nil {
		return err
	}
	profile := ""
	if traced {
		profile = filepath.Join(outDir, name+".cpu.pprof")
	}
	res, err := runChild(w, seed, traced, profile)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// contractValue is one metric in the driver contract's result object.
type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractResult is the object the driver reads from the last line.
type contractResult struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

// contractMain measures one workload for about budget and prints the
// contract's result object: end-to-end metrics untraced, per-layer
// metrics traced. Any correctness violation is an error, so the process
// exits non-zero after the metrics have been printed.
func contractMain(name string, seed int64, budget time.Duration, traced bool) error {
	w, err := loadWorkload(name)
	if err != nil {
		return err
	}
	if err := w.runnable(); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	var l ledger
	out := contractResult{Metrics: map[string]contractValue{}}
	var errs []string
	if traced {
		pl, err := l.perLayer(name, seed)
		if err != nil {
			return err
		}
		drivers, driverSpans, err := driverValues(driverTime)
		if err != nil {
			return err
		}
		for _, v := range append(append(pl.values, drivers...), l.benchValues()...) {
			out.Metrics[v.name] = contractValue{v.value, v.unit}
		}
		out.Attempted, out.Failed, errs = pl.plain.Attempted, pl.plain.Failed, pl.errs
		if err := writeSpans(filepath.Join(outDir, "trace.jsonl"), append(pl.spans, driverSpans...)); err != nil {
			return err
		}
	} else {
		m, err := l.measure(name, seed, 0, budget)
		if err != nil {
			return err
		}
		for _, d := range endToEnd() {
			out.Metrics[d.name] = contractValue{m.values[d.name], d.unit}
		}
		out.Attempted, out.Failed, errs = m.repeats[0].Attempted, m.repeats[0].Failed, m.errs
		fmt.Fprintf(os.Stderr, "perf: %s seed %d: %d repeats, %d discarded from the wall-clock figures for stolen time (steal share %.3f)%s, raw run wall %.3fs at %.2fx reference slowdown, fingerprint %s\n",
			name, seed, len(m.repeats), l.discarded, l.stealShare(), noisyNote(m.noisy), m.rawRunWall(), m.refSlowdown(), m.repeats[0].Fingerprint)
	}
	if l.noStealColumn {
		fmt.Fprintln(os.Stderr, "perf: /proc/stat reports no steal column here; no repeat was filtered")
	}
	out.Correct = len(errs) == 0 && out.Failed == 0
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		return fmt.Errorf("%s: %d operations failed; violations: %q", name, out.Failed, errs)
	}
	return nil
}

func noisyNote(noisy bool) string {
	if noisy {
		return ", NOISY: too few quiet repeats, wall-clock figures from all"
	}
	return ""
}
