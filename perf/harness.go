package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

// metricDef names one end-to-end metric. The table is the code's side of
// BENCHMARK.json's end_to_end list; a test holds the two together.
type metricDef struct {
	name, unit string
	// bound is the share of the parent's median by which the metric may
	// get worse before a change is rejected.
	bound float64
	// simulated marks metrics computed in virtual time: for one seed they
	// repeat exactly, on any machine.
	simulated bool
	// value computes the metric from the repeats of one seed.
	value func([]*childResult) float64
}

func endToEnd() []metricDef {
	return []metricDef{
		{"setup_s", "s", 0.25, false, setupSeconds},
		{"run_s", "s", 0.25, false, runSeconds},
		{"peak_rss_mb", "MB", 0.15, false, medianOf(func(r *childResult) float64 { return r.PeakRSSMB })},
		{"live_heap_mb", "MB", 0.20, false, medianOf(func(r *childResult) float64 { return r.LiveHeapMB })},
		{"run_alloc_mb", "MB", 0.05, false, medianOf(func(r *childResult) float64 { return r.RunAllocMB })},
		{"sim_handoff_p50_ms", "ms", 0.02, true, medianOf(func(r *childResult) float64 { return r.HandoffP50MS })},
		{"sim_handoff_p99_ms", "ms", 0.02, true, medianOf(func(r *childResult) float64 { return r.HandoffP99MS })},
	}
}

// medianOf makes a metric of the median over repeats of a per-repeat figure.
func medianOf(get func(*childResult) float64) func([]*childResult) float64 {
	return func(repeats []*childResult) float64 {
		vals := make([]float64, len(repeats))
		for i, r := range repeats {
			vals[i] = get(r)
		}
		return median(vals)
	}
}

// normalized turns a segment's CPU seconds into seconds on a machine where
// the reference kernel takes its nominal time.
func (s segment) normalized() float64 { return s.WorkS / s.RefS * refNominal.Seconds() }

// runSeconds is the run_s of a set of repeats of one seed: for each
// segment of the run, the median over the repeats of its normalized time,
// summed. Segment j is the same simulated work in every repeat, so the
// median sets aside the repeats in which a burst of noise hit it, and the
// normalization takes out what slows the whole machine for longer than a
// repeat lasts. The repeats must have run the same number of segments,
// which measure checks with their fingerprints.
func runSeconds(repeats []*childResult) float64 {
	total := 0.0
	for j := range repeats[0].Segments {
		vals := make([]float64, len(repeats))
		for i, r := range repeats {
			vals[i] = r.Segments[j].normalized()
		}
		total += median(vals)
	}
	return total
}

// setupSeconds is the setup_s of a set of repeats: the median normalized
// time of one world build, over every timed batch of builds of every repeat.
func setupSeconds(repeats []*childResult) float64 {
	var vals []float64
	for _, r := range repeats {
		for _, b := range r.Builds {
			vals = append(vals, b.normalized())
		}
	}
	return median(vals)
}

// childTimeout bounds one child process; the slowest workload takes a few
// seconds.
const childTimeout = 150 * time.Second

// ledger accumulates what the harness knows about the machine's noise
// over the children it has run.
type ledger struct {
	wallS, stolenS float64
	discarded      int
	noStealColumn  bool
}

func (l *ledger) stealShare() float64 {
	if l.wallS == 0 {
		return 0
	}
	return l.stolenS / l.wallS
}

// spawn runs one workload once in a fresh process — this executable, in
// -child mode — and returns its result and whether stolen time disturbed it.
func (l *ledger) spawn(name string, seed int64, traced bool) (res *childResult, disturbed bool, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, false, err
	}
	args := []string{"-child", "-workload", name, "-seed", strconv.FormatInt(seed, 10)}
	if traced {
		args = append(args, "-trace", "1")
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr

	steal0, haveSteal := readSteal()
	t0 := now()
	runErr := cmd.Run()
	wall := since(t0).Seconds()
	steal1, _ := readSteal()
	if runErr != nil {
		return nil, false, fmt.Errorf("%s: child: %w", name, runErr)
	}
	res = &childResult{}
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), res); err != nil {
		return nil, false, fmt.Errorf("%s: child output: %w", name, err)
	}
	l.wallS += wall
	if !haveSteal {
		l.noStealColumn = true
		return res, false, nil
	}
	l.stolenS += steal1 - steal0
	if stolen(steal1-steal0, wall) {
		l.discarded++
		return res, true, nil
	}
	return res, false, nil
}

// measurement is one workload's end-to-end result: the repeats and the
// medians taken over them.
type measurement struct {
	// repeats holds every child run, in order. The bounded metrics are
	// taken over all of them: CPU clocks and memory are not charged for
	// stolen time, and leaving the disturbed repeats out only cost samples
	// (ten seeds of fleet_roam spread by 4.9 % with them, 5.7 % without).
	repeats []*childResult
	// quiet holds the repeats stolen time left alone; the wall-clock
	// figures are taken over these.
	quiet []*childResult
	// noisy is set when too few quiet repeats could be had; the wall-clock
	// figures then come from all repeats rather than from too few.
	noisy  bool
	values map[string]float64 // end-to-end metric -> value over repeats
	errs   []string
}

// rawRunWall is the median over the quiet repeats of the run's raw wall
// seconds: the issue's run_s, which this machine is too noisy to bound.
func (m *measurement) rawRunWall() float64 {
	return medianOf(func(r *childResult) float64 { return r.RunWallS })(m.quiet)
}

// refSlowdown is how much slower than nominal the reference kernel ran
// during the measurement: the median over every segment of every repeat.
func (m *measurement) refSlowdown() float64 {
	var vals []float64
	for _, r := range m.repeats {
		for _, s := range r.Segments {
			vals = append(vals, s.RefS/refNominal.Seconds())
		}
	}
	return median(vals)
}

// minRepeats is the fewest repeats a median is taken over.
const minRepeats = 3

// measure runs the workload in fresh children and takes medians. With
// repeats > 0 it wants that many quiet repeats and gives up after twice as
// many children; otherwise it runs children for about budget of wall time,
// at least minRepeats of them.
func (l *ledger) measure(name string, seed int64, repeats int, budget time.Duration) (*measurement, error) {
	m := &measurement{values: map[string]float64{}}
	start := now()
	var longest time.Duration
	for {
		if repeats > 0 && (len(m.quiet) >= repeats || len(m.repeats) >= 2*repeats) {
			break
		}
		if repeats <= 0 && len(m.repeats) >= minRepeats && since(start)+longest > budget {
			break
		}
		t0 := now()
		res, disturbed, err := l.spawn(name, seed, false)
		if err != nil {
			return nil, err
		}
		if d := since(t0); d > longest {
			longest = d
		}
		m.repeats = append(m.repeats, res)
		if !disturbed {
			m.quiet = append(m.quiet, res)
		}
	}
	if len(m.quiet) < minRepeats || len(m.quiet) < repeats {
		m.noisy = true
		m.quiet = m.repeats
	}
	first := m.repeats[0]
	for _, r := range m.repeats {
		m.errs = append(m.errs, r.Violations...)
		if r.Fingerprint != first.Fingerprint {
			m.errs = append(m.errs, fmt.Sprintf("fingerprint differs between repeats of one seed: %s vs %s", r.Fingerprint, first.Fingerprint))
		}
		if len(r.Segments) != len(first.Segments) {
			return nil, fmt.Errorf("%s: repeats of one seed ran %d and %d segments", name, len(r.Segments), len(first.Segments))
		}
	}
	for _, d := range endToEnd() {
		m.values[d.name] = d.value(m.repeats)
	}
	return m, nil
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// quantile interpolates the q-th quantile of vals, which it leaves alone.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
