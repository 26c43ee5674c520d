package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
)

// childResult is what one fresh process reports after building, running
// and checking one workload once. The harness re-executes itself per
// repeat so every measurement starts from the same heap and GC state.
type childResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`

	// Builds times the world builds — the first alone, the others in
	// batches, each entry the time of one build — and Segments the run cut
	// into segments with the drain last, each beside the reference kernel
	// run after it.
	Builds   []segment `json:"builds"`
	Segments []segment `json:"segments"`
	RunWallS float64   `json:"run_wall_s"` // raw wall seconds of the virtual window plus drain

	PeakRSSMB  float64 `json:"peak_rss_mb"`
	LiveHeapMB float64 `json:"live_heap_mb"`
	RunAllocMB float64 `json:"run_alloc_mb"`

	HandoffP50MS float64 `json:"sim_handoff_p50_ms"`
	HandoffP99MS float64 `json:"sim_handoff_p99_ms"`
	Handoffs     int     `json:"handoffs"`
	VirtualS     float64 `json:"virtual_s"`

	Attempted   int      `json:"attempted"`
	Failed      int      `json:"failed"`
	Violations  []string `json:"violations,omitempty"`
	Fingerprint string   `json:"fingerprint"`
	Counts      []count  `json:"counts"`

	Mallocs         uint64  `json:"mallocs"`
	GCCycles        uint32  `json:"gc_cycles"`
	GCPauseMS       float64 `json:"gc_pause_ms"`
	CPUS            float64 `json:"cpu_s"` // user+sys CPU seconds of the run phase
	Workers         int     `json:"workers"`
	WorkerBusyShare float64 `json:"worker_busy_share"`

	// Set on traced runs only.
	Spans      []span             `json:"spans,omitempty"`
	CPUShares  map[string]float64 `json:"cpu_shares,omitempty"`
	CPUSamples int64              `json:"cpu_samples,omitempty"`
}

const mb = 1 << 20

// setupBatches is how many timed batches a child's set-up builds after
// the first are grouped into.
const setupBatches = 16

// profileHz is the traced run's CPU sampling rate.
const profileHz = 1000

// runChild builds w's world, runs it and measures it, then builds it
// SetupBuilds-1 more times to time set-up. With traced set it also records
// the benchmark's own spans and a CPU profile of the run phase, attributed
// to layers; profile, when not empty, is where the raw profile is kept.
func runChild(w *workload, seed int64, traced bool, profile string) (*childResult, error) {
	// The thread CPU clock the segments are timed on only means something
	// while this goroutine stays on one thread.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var rec *recorder
	if traced {
		rec = newRecorder(w.Name)
	}
	res := &childResult{Workload: w.Name, Seed: seed}

	// Set-up: the first build is the one that runs. The others, which
	// only time set-up, come after every measurement of the run: worlds
	// built in one process keep each other alive through the chunks of the
	// host arena they share, and would otherwise sit in the run's heap.
	ref := newRefKernel()
	rec.begin("setup")
	t := startSegment(1) // the builders run on the calling thread
	wld, err := w.build(seed, rec)
	res.Builds = append(res.Builds, t.stop(ref))
	rec.end()
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", w.Name, err)
	}
	defer wld.close()

	// Start the run phase from a collected heap, so set-up garbage does
	// not decide when its first GC cycle comes.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var prof bytes.Buffer
	if traced {
		// A run lasts a second or two; at the default 100 Hz that is too
		// few samples to split fifteen ways. The rate set here survives
		// StartCPUProfile, which only complains on stderr that it could not
		// set its own.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	clk := &runClock{rec: rec, ref: ref, workers: w.workers(), every: w.RefEvery}
	cpu0 := processCPU()
	t0 := now()
	rec.begin("run")
	err = wld.run(clk)
	clk.closeSegment()
	rec.end()
	clk.every = 1 // the drain is a segment of its own
	clk.step("drain", wld.drain)
	res.RunWallS = since(t0).Seconds()
	res.Segments = clk.segs
	res.CPUS = (processCPU() - cpu0).Seconds()
	if traced {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, fmt.Errorf("%s: run: %w", w.Name, err)
	}
	res.RunAllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / mb
	res.Mallocs = m1.Mallocs - m0.Mallocs
	res.GCCycles = m1.NumGC - m0.NumGC
	res.GCPauseMS = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6

	rec.begin("collect")
	out := wld.collect(rec)
	rec.end()
	res.Counts = out.Counts
	res.Violations = out.Violations
	res.Attempted, res.Failed = out.attempted()
	res.Handoffs = len(out.Handoffs)
	res.HandoffP50MS = float64(percentile(out.Handoffs, 50)) / 1e6
	res.HandoffP99MS = float64(percentile(out.Handoffs, 99)) / 1e6
	res.VirtualS = out.VirtualEnd.Duration().Seconds()
	res.Fingerprint = fingerprint(&out)
	res.Workers = out.Workers
	res.WorkerBusyShare = 1 // one loop, or one inline worker, is busy for the whole run
	if out.Workers > 1 {
		res.WorkerBusyShare = out.WorkerBusy.Seconds() / (res.RunWallS * float64(out.Workers))
	}

	// Live heap: what stays resident with the world still referenced.
	runtime.GC()
	runtime.ReadMemStats(&m1)
	res.LiveHeapMB = float64(m1.HeapAlloc)/mb - refKernelMB
	runtime.KeepAlive(wld)
	runtime.KeepAlive(ref)
	res.PeakRSSMB = peakRSSMB()

	// The other builds are timed in at most setupBatches batches, the
	// kernel after each: campus_app's build takes a third of a millisecond, less
	// than the kernel, and is only measured well some dozens at a time.
	left := w.SetupBuilds - 1
	batch := (left + setupBatches - 1) / setupBatches
	for left > 0 {
		n := min(batch, left)
		t := startSegment(1)
		for i := 0; i < n; i++ {
			extra, err := w.build(seed, nil)
			if err != nil {
				return nil, fmt.Errorf("%s: build: %w", w.Name, err)
			}
			extra.close()
		}
		seg := t.stop(ref)
		seg.WorkS /= float64(n)
		res.Builds = append(res.Builds, seg)
		left -= n
	}
	if traced {
		res.Spans = rec.spans
		shares, samples, err := attributeProfile(prof.Bytes())
		if err != nil {
			return nil, fmt.Errorf("%s: cpu profile: %w", w.Name, err)
		}
		res.CPUShares, res.CPUSamples = shares, samples
		if profile != "" {
			if err := os.WriteFile(profile, prof.Bytes(), 0o644); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// fingerprint hashes everything a run computes in virtual time: the exact
// counts in their fixed order, each flow's totals, the final virtual time
// and the sorted handoff latencies. Same seed, same fingerprint — at any
// worker count, traced or not, on any machine.
func fingerprint(o *outcome) string {
	h := sha256.New()
	for _, c := range o.Counts {
		fmt.Fprintf(h, "%s=%d\n", c.Name, c.Value)
	}
	for _, f := range o.Flows {
		fmt.Fprintf(h, "flow %s %d %d\n", f.Name, f.Sent, f.Received)
	}
	fmt.Fprintf(h, "end %d\nhandoffs %d of %d\n", o.VirtualEnd, len(o.Handoffs), o.HandoffsStarted)
	for _, d := range o.Handoffs {
		fmt.Fprintf(h, "%d\n", d)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
