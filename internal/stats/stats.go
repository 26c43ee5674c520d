// Package stats provides the measurement primitives the experiment
// harnesses use: counters, duration histograms with summary statistics,
// per-iteration loss tallies, and the bucketized "packets lost per
// iteration" histograms of the paper's Figure 6.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Series accumulates duration samples and reports summary statistics.
type Series struct {
	name    string
	samples []time.Duration
}

// NewSeries creates a named series.
func NewSeries(name string) *Series { return &Series{name: name} }

// Add appends a sample.
func (s *Series) Add(d time.Duration) { s.samples = append(s.samples, d) }

// N returns the sample count.
func (s *Series) N() int { return len(s.samples) }

// Samples returns a copy of the samples.
func (s *Series) Samples() []time.Duration {
	return append([]time.Duration(nil), s.samples...)
}

// Mean returns the arithmetic mean, or zero for an empty series.
func (s *Series) Mean() time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, v := range s.samples {
		sum += v
	}
	return sum / time.Duration(len(s.samples))
}

// StdDev returns the population standard deviation.
func (s *Series) StdDev() time.Duration {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	mean := float64(s.Mean())
	var ss float64
	for _, v := range s.samples {
		d := float64(v) - mean
		ss += d * d
	}
	return time.Duration(math.Sqrt(ss / float64(n)))
}

// Min returns the smallest sample.
func (s *Series) Min() time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	m := s.samples[0]
	for _, v := range s.samples[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest sample.
func (s *Series) Max() time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	m := s.samples[0]
	for _, v := range s.samples[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 < p <= 100) by
// nearest-rank.
func (s *Series) Percentile(p float64) time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	sorted := s.Samples()
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// String summarizes the series the way the paper reports Figure 7 rows:
// mean with standard deviation in parentheses.
func (s *Series) String() string {
	return fmt.Sprintf("%s: %.2fms (%.2fms) n=%d",
		s.name,
		float64(s.Mean())/float64(time.Millisecond),
		float64(s.StdDev())/float64(time.Millisecond),
		s.N())
}

// LossHistogram tallies iterations by how many packets each lost — the
// exact presentation of the paper's Figure 6 bar charts.
type LossHistogram struct {
	name   string
	counts map[int]int
	total  int
}

// NewLossHistogram creates a named histogram.
func NewLossHistogram(name string) *LossHistogram {
	return &LossHistogram{name: name, counts: make(map[int]int)}
}

// Record tallies one iteration that lost n packets.
func (h *LossHistogram) Record(n int) {
	h.counts[n]++
	h.total++
}

// Iterations returns the number of recorded iterations.
func (h *LossHistogram) Iterations() int { return h.total }

// Count returns how many iterations lost exactly n packets.
func (h *LossHistogram) Count(n int) int { return h.counts[n] }

// MaxLoss returns the largest per-iteration loss observed.
func (h *LossHistogram) MaxLoss() int {
	m := 0
	for n := range h.counts {
		if n > m {
			m = n
		}
	}
	return m
}

// TotalLost returns the sum of losses across iterations.
func (h *LossHistogram) TotalLost() int {
	sum := 0
	for n, c := range h.counts {
		sum += n * c
	}
	return sum
}

// Rows returns (loss, iterations) pairs in ascending loss order, including
// zero-count gaps up to MaxLoss, matching a bar chart's x-axis.
func (h *LossHistogram) Rows() [][2]int {
	var rows [][2]int
	for n := 0; n <= h.MaxLoss(); n++ {
		rows = append(rows, [2]int{n, h.counts[n]})
	}
	return rows
}

// String renders an ASCII bar chart in the style of Figure 6.
func (h *LossHistogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%d iterations)\n", h.name, h.total)
	for _, row := range h.Rows() {
		fmt.Fprintf(&b, "  %2d lost | %-3d %s\n", row[0], row[1], strings.Repeat("#", row[1]))
	}
	return b.String()
}
