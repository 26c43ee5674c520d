package stats

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// quickConfig is a testing/quick configuration whose generator has a fixed
// seed, so a failing property reproduces on the next run (maxCount 0 keeps
// quick's default of 100).
func quickConfig(maxCount int) *quick.Config {
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(1996))}
}

func TestSeriesSummary(t *testing.T) {
	s := NewSeries("reg")
	for _, v := range []time.Duration{2 * time.Millisecond, 4 * time.Millisecond, 6 * time.Millisecond} {
		s.Add(v)
	}
	if s.N() != 3 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 4*time.Millisecond {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if s.Min() != 2*time.Millisecond || s.Max() != 6*time.Millisecond {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	// Population stddev of {2,4,6} is sqrt(8/3) ≈ 1.633ms.
	sd := s.StdDev()
	if sd < 1500*time.Microsecond || sd > 1800*time.Microsecond {
		t.Fatalf("StdDev = %v", sd)
	}
	if !strings.Contains(s.String(), "4.00ms") || !strings.Contains(s.String(), "n=3") {
		t.Fatalf("String = %q", s.String())
	}
}

func TestSeriesEmpty(t *testing.T) {
	s := NewSeries("empty")
	if s.Mean() != 0 || s.StdDev() != 0 || s.Min() != 0 || s.Max() != 0 || s.Percentile(50) != 0 {
		t.Fatal("empty series should report zeros")
	}
}

func TestSeriesPercentile(t *testing.T) {
	s := NewSeries("p")
	for i := 1; i <= 100; i++ {
		s.Add(time.Duration(i) * time.Millisecond)
	}
	if got := s.Percentile(50); got != 50*time.Millisecond {
		t.Fatalf("P50 = %v", got)
	}
	if got := s.Percentile(99); got != 99*time.Millisecond {
		t.Fatalf("P99 = %v", got)
	}
	if got := s.Percentile(100); got != 100*time.Millisecond {
		t.Fatalf("P100 = %v", got)
	}
}

// Property: mean lies within [min, max] and stddev is non-negative for any
// sample set.
func TestPropertySeriesInvariants(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewSeries("q")
		for _, v := range raw {
			s.Add(time.Duration(v % 1_000_000))
		}
		m := s.Mean()
		return m >= s.Min() && m <= s.Max() && s.StdDev() >= 0
	}
	if err := quick.Check(f, quickConfig(200)); err != nil {
		t.Fatal(err)
	}
}

func TestLossHistogram(t *testing.T) {
	h := NewLossHistogram("cold wired->wireless")
	for _, loss := range []int{0, 1, 1, 3, 0, 0, 1, 2, 0, 0} {
		h.Record(loss)
	}
	if h.Iterations() != 10 {
		t.Fatalf("Iterations = %d", h.Iterations())
	}
	if h.Count(0) != 5 || h.Count(1) != 3 || h.Count(2) != 1 || h.Count(3) != 1 {
		t.Fatalf("counts wrong: %v", h.Rows())
	}
	if h.MaxLoss() != 3 {
		t.Fatalf("MaxLoss = %d", h.MaxLoss())
	}
	if h.TotalLost() != 8 {
		t.Fatalf("TotalLost = %d", h.TotalLost())
	}
	rows := h.Rows()
	if len(rows) != 4 || rows[2] != [2]int{2, 1} {
		t.Fatalf("Rows = %v", rows)
	}
	if !strings.Contains(h.String(), "10 iterations") {
		t.Fatalf("String = %q", h.String())
	}
}

// Property: iterations equals the sum of row counts, and total lost equals
// the weighted sum, for arbitrary loss sequences.
func TestPropertyHistogramConsistency(t *testing.T) {
	f := func(losses []uint8) bool {
		h := NewLossHistogram("x")
		want := 0
		for _, l := range losses {
			h.Record(int(l % 16))
			want += int(l % 16)
		}
		sum := 0
		for _, row := range h.Rows() {
			sum += row[1]
		}
		return sum == h.Iterations() && h.TotalLost() == want
	}
	if err := quick.Check(f, quickConfig(200)); err != nil {
		t.Fatal(err)
	}
}
