package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// sortedNames lists the metrics' names, sorted.
func sortedNames(vals []layerValue) []string {
	names := make([]string, len(vals))
	for i, v := range vals {
		names[i] = v.name
	}
	sort.Strings(names)
	return names
}

// shortWorkload loads a workload at the size the tests run.
func shortWorkload(t *testing.T, name string) *workload {
	t.Helper()
	w, err := loadWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w.shrink()
	return w
}

func runShort(t *testing.T, w *workload, traced bool) *childResult {
	t.Helper()
	res, err := runChild(w, 1996, traced, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) > 0 || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: attempted %d, failed %d, violations %q", w.Name, res.Attempted, res.Failed, res.Violations)
	}
	if res.Handoffs == 0 || res.HandoffP50MS <= 0 || res.HandoffP99MS < res.HandoffP50MS {
		t.Fatalf("%s: %d handoffs, p50 %v ms, p99 %v ms", w.Name, res.Handoffs, res.HandoffP50MS, res.HandoffP99MS)
	}
	if len(res.Builds) != 1 || len(res.Segments) < 2 { // a short workload builds once
		t.Fatalf("%s: %d builds, %d segments", w.Name, len(res.Builds), len(res.Segments))
	}
	return res
}

// shortPair is one workload's short untraced and traced run. Two tests need
// them; they are made once.
type shortPair struct{ plain, traced *childResult }

var shortPairs = map[string]shortPair{}

func shortRuns(t *testing.T, name string) shortPair {
	t.Helper()
	p, ok := shortPairs[name]
	if !ok {
		p = shortPair{runShort(t, shortWorkload(t, name), false), runShort(t, shortWorkload(t, name), true)}
		shortPairs[name] = p
	}
	return p
}

// Every workload runs correctly at its short size and gives the same
// fingerprint with the benchmark's tracing on.
func TestWorkloadsShort(t *testing.T) {
	fingerprints := map[string]string{}
	for _, name := range workloadNames() {
		w := shortWorkload(t, name)
		if f := w.Fleet; f != nil && (f.Hosts > 64 || f.Window.D() > 2*time.Second) {
			t.Fatalf("%s: short size is %d hosts for %v", name, f.Hosts, f.Window.D())
		}
		first, traced := shortRuns(t, name).plain, shortRuns(t, name).traced
		if traced.Fingerprint != first.Fingerprint {
			t.Errorf("%s: traced fingerprint %s, untraced %s", name, traced.Fingerprint, first.Fingerprint)
		}
		if len(durations(traced.Spans, "run.slice")) == 0 || len(durations(traced.Spans, "setup")) != 1 {
			t.Errorf("%s: traced run recorded no run.slice or setup span", name)
		}
		total := 0.0
		for _, l := range cpuLayers() {
			total += traced.CPUShares[l]
		}
		if traced.CPUSamples > 0 && math.Abs(total-1) > 1e-9 {
			t.Errorf("%s: cpu shares sum to %v", name, total)
		}
		fingerprints[name] = first.Fingerprint
	}
	if fingerprints["fleet_roam"] != fingerprints["fleet_roam_par"] {
		t.Errorf("fleet_roam and fleet_roam_par fingerprints differ: the worker count changed a result")
	}
	if fingerprints["fleet_roam"] == fingerprints["handoff_storm"] {
		t.Errorf("two different workloads share a fingerprint")
	}
}

// The seed reaches the workload: another seed, another fingerprint.
func TestSeedChangesInputs(t *testing.T) {
	w := shortWorkload(t, "fleet_roam")
	a, err := runChild(w, 1, false, "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := runChild(shortWorkload(t, "fleet_roam"), 2, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint == b.Fingerprint {
		t.Error("seeds 1 and 2 gave the same fingerprint")
	}
}

// Every layer driver runs for one iteration and reports a positive cost
// under a unique name.
func TestDriversOneIteration(t *testing.T) {
	vals, spans, err := driverValues(0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, v := range vals {
		if seen[v.name] {
			t.Errorf("driver metric %s reported twice", v.name)
		}
		seen[v.name] = true
		if strings.Contains(v.name, "_ns") && !(v.value > 0) {
			t.Errorf("%s = %v", v.name, v.value)
		}
	}
	if !seen["stack.host_bytes"] || !seen["metrics.telemetry_overhead_share"] || !seen["mip.registration_allocs"] {
		t.Errorf("drivers reported only %v", sortedNames(vals))
	}
	for _, s := range spans {
		if !strings.HasPrefix(s.Name, "driver.") || s.EndNS < s.StartNS {
			t.Errorf("driver span %+v", s)
		}
	}
}

// BENCHMARK.json and the code name the same workloads, end-to-end metrics
// (with units and bounds) and per-layer metrics.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark's directory")
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for i, name := range workloadNames() {
		if i >= len(b.Workloads) || b.Workloads[i].Name != name {
			t.Fatalf("BENCHMARK.json workloads %v, code %v", b.Workloads, workloadNames())
		}
		if _, err := loadWorkload(name); err != nil {
			t.Fatal(err)
		}
	}
	defs := endToEnd()
	if len(defs) != len(b.EndToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, code %d", len(b.EndToEnd), len(defs))
	}
	for i, d := range defs {
		if e := b.EndToEnd[i]; e.Name != d.name || e.Unit != d.unit || e.Bound != d.bound || e.Better != "lower" {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, code %s %s %v", i, e, d.name, d.unit, d.bound)
		}
	}

	plain, traced := shortRuns(t, "campus_app").plain, shortRuns(t, "campus_app").traced
	drivers, _, err := driverValues(0)
	if err != nil {
		t.Fatal(err)
	}
	var l ledger
	code := append(append(layerValues(plain, traced, 1), drivers...), l.benchValues()...)
	units := map[string]string{}
	for _, v := range code {
		units[v.name] = v.unit
	}
	var listed []string
	for _, p := range b.PerLayer {
		listed = append(listed, p.Name)
		if units[p.Name] != p.Unit {
			t.Errorf("per-layer metric %s: BENCHMARK.json unit %q, code %q", p.Name, p.Unit, units[p.Name])
		}
	}
	sort.Strings(listed)
	if got := sortedNames(code); strings.Join(got, " ") != strings.Join(listed, " ") {
		t.Errorf("per-layer metrics differ:\n code %v\n json %v", got, listed)
	}
	if len(listed) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(listed))
	}
}

// The profile parser reads a CPU profile recorded from a traced
// handoff_storm run and attributes its samples to layers.
func TestAttributeProfileFixture(t *testing.T) {
	data, err := os.ReadFile("testdata/handoff_storm.cpu.pprof")
	if err != nil {
		t.Fatal(err)
	}
	shares, samples, err := attributeProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	if samples != 533 {
		t.Errorf("fixture holds %d samples, want 533", samples)
	}
	total := 0.0
	for _, l := range cpuLayers() {
		total += shares[l]
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %v", total)
	}
	for layer, want := range map[string]float64{"link": 109.0 / 533, "sim": 99.0 / 533, "mip": 41.0 / 533, "runtime.gc": 82.0 / 533, "app": 0} {
		if math.Abs(shares[layer]-want) > 1e-9 {
			t.Errorf("%s share %v, want %v", layer, shares[layer], want)
		}
	}
	if _, _, err := attributeProfile(data[:len(data)/2]); err == nil {
		t.Error("a truncated profile parsed without error")
	}
}

func TestAttributeStack(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", "mosquitonet/internal/link.(*Network).newFlight", "mosquitonet/internal/stack.(*Host).postroute"}, "link"},
		{[]string{"mosquitonet/internal/pipeline.(*Chain[go.shape.*uint8]).Run", "mosquitonet/internal/stack.(*Host).Input"}, "pipeline"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"mosquitonet/internal/dhcp.(*Client).Acquire", "main.main"}, "other"},
		{[]string{"main.(*refKernel).run", "main.runChild"}, "other"},
		{[]string{"fmt.Sprintf", "mosquitonet/internal/link.HWAddr.String", "mosquitonet/internal/link.(*Device).Send"}, "metrics"},
		{[]string{"mosquitonet/internal/ip.InternString", "mosquitonet/internal/ip.Addr.String", "mosquitonet/internal/stack.(*Host).Input"}, "metrics"},
		{nil, "other"},
	} {
		if got := attributeStack(c.frames); got != c.want {
			t.Errorf("attributeStack(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

// The steal filter reads the eighth counter of the aggregate cpu line and
// discards a repeat that lost more than a twentieth of its wall time.
func TestStealFilter(t *testing.T) {
	data, err := os.ReadFile("testdata/proc_stat")
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseSteal(string(data))
	if err != nil || got != 101.98 {
		t.Errorf("parseSteal = %v, %v; want 101.98 s", got, err)
	}
	old, err := os.ReadFile("testdata/proc_stat_old_kernel")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseSteal(string(old)); err != errNoStealColumn {
		t.Errorf("a /proc/stat without a steal column gave %v", err)
	}
	if _, err := parseSteal("intr 1 2 3\n"); err != errNoStealColumn {
		t.Errorf("a /proc/stat without a cpu line gave %v", err)
	}
	if stolen(0.10, 2.0) || !stolen(0.11, 2.0) || stolen(1, 0) {
		t.Error("stolen() does not cut at 5% of the wall time")
	}
}

// run_s is the sum over segments of the median over repeats of the
// segment's work time divided by its kernel time.
func TestRunSeconds(t *testing.T) {
	ref := refNominal.Seconds()
	rep := func(segs ...segment) *childResult { return &childResult{Segments: segs} }
	got := runSeconds([]*childResult{
		rep(segment{WorkS: 1, RefS: ref}, segment{WorkS: 2, RefS: 2 * ref}),
		rep(segment{WorkS: 9, RefS: ref}, segment{WorkS: 1, RefS: ref}),
		rep(segment{WorkS: 3, RefS: 3 * ref}, segment{WorkS: 7, RefS: ref}),
	})
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("runSeconds = %v; want 2", got)
	}
}

// A name ending in _par loads the same file with the worker pool on, and
// only a fleet has such a twin.
func TestParallelTwin(t *testing.T) {
	one, err := loadWorkload("fleet_roam")
	if err != nil {
		t.Fatal(err)
	}
	par, err := loadWorkload("fleet_roam_par")
	if err != nil {
		t.Fatal(err)
	}
	if one.workers() != 1 || par.workers() != parWorkers() || par.Name != "fleet_roam_par" {
		t.Errorf("workers %d and %d, name %q", one.workers(), par.workers(), par.Name)
	}
	if (par.runnable() == nil) != (parWorkers() >= 2) {
		t.Errorf("runnable() = %v on %d CPUs", par.runnable(), parWorkers())
	}
	par.Fleet.parallel = false
	if *par.Fleet != *one.Fleet {
		t.Errorf("the twin's inputs differ: %+v vs %+v", par.Fleet, one.Fleet)
	}
	if _, err := loadWorkload("campus_app_par"); err == nil {
		t.Error("campus_app has a parallel twin")
	}
}

// Spans nest under the innermost open span, aggregated laps become
// children, and self time is duration minus children.
func TestRecorder(t *testing.T) {
	r := newRecorder("t")
	r.begin("setup")
	for i := 0; i < 3; i++ {
		r.lap("setup.stack", r.tick())
	}
	r.begin("inner")
	r.end()
	r.end()
	if len(r.spans) != 3 {
		t.Fatalf("%d spans: %+v", len(r.spans), r.spans)
	}
	setup, inner, agg := r.spans[0], r.spans[1], r.spans[2]
	if setup.Parent != 0 || inner.Parent != setup.ID || agg.Parent != setup.ID || agg.Name != "setup.stack" || agg.Count != 3 {
		t.Errorf("spans %+v", r.spans)
	}
	if got := selfTime(r.spans, setup); got != setup.dur()-inner.dur()-agg.dur() {
		t.Errorf("self time %v", got)
	}
	var off *recorder
	off.begin("x")
	off.lap("y", off.tick())
	off.end()
}
