package metrics

import (
	"testing"
	"time"

	"mosquitonet/internal/sim"
)

// Quantile's contract at the edges: nil and empty histograms answer zero,
// a single sample answers itself at every q, and out-of-range q clamps to
// the extreme samples rather than indexing out of bounds.
func TestQuantileEdgeCases(t *testing.T) {
	var nilH *Histogram
	if got := nilH.Quantile(0.99); got != 0 {
		t.Errorf("nil histogram Quantile = %v, want 0", got)
	}
	empty := &Histogram{}
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram Quantile = %v, want 0", got)
	}

	single := &Histogram{}
	single.Observe(7 * time.Millisecond)
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := single.Quantile(q); got != 7*time.Millisecond {
			t.Errorf("single-sample Quantile(%v) = %v, want 7ms", q, got)
		}
	}

	multi := &Histogram{}
	for _, d := range []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond} {
		multi.Observe(d)
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{-0.5, 10 * time.Millisecond}, // clamps to the minimum
		{0, 10 * time.Millisecond},    // q=0 is the minimum, not an out-of-range rank
		{1, 30 * time.Millisecond},    // q=1 is the maximum
		{1.5, 30 * time.Millisecond},  // clamps to the maximum
	} {
		if got := multi.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

// A merged snapshot on colliding keys: the same (name, labels) emitted in
// one registry and in several must merge into ONE row — counters and
// gauges sum, histograms pool their samples — while different labels under
// the same name stay separate rows.
func TestMergedSnapshotCollidingKeys(t *testing.T) {
	loopA, loopB := sim.New(1), sim.New(2)
	a, b := New(loopA), New(loopB)

	a.Counter("test.hits", L("host", "x")).Add(2)
	b.Counter("test.hits", L("host", "x")).Add(5)
	b.Counter("test.hits", L("host", "y")).Add(11) // different labels: no collision

	gauge(a, "test.depth", 3)
	gauge(b, "test.depth", 4)

	hist(a, "test.lat").Observe(10 * time.Millisecond)
	hist(a, "test.lat").Observe(20 * time.Millisecond)
	hist(b, "test.lat").Observe(30 * time.Millisecond)

	s := MergedSnapshotFiltered(loopA.Now(), nil, a, b)

	if m := s.Get("test.hits", L("host", "x")); m == nil || m.Counter == nil || *m.Counter != 7 {
		t.Errorf("colliding counter not summed: %+v", m)
	}
	if m := s.Get("test.hits", L("host", "y")); m == nil || m.Counter == nil || *m.Counter != 11 {
		t.Errorf("distinct-label counter disturbed: %+v", m)
	}
	if m := s.Get("test.depth"); m == nil || m.Gauge == nil || *m.Gauge != 7 {
		t.Errorf("colliding gauge not summed: %+v", m)
	}
	m := s.Get("test.lat")
	if m == nil || m.Histogram == nil {
		t.Fatal("colliding histogram missing")
	}
	h := m.Histogram
	if h.Count != 3 || h.Min != int64(10*time.Millisecond) || h.Max != int64(30*time.Millisecond) {
		t.Errorf("colliding histogram not pooled: %+v", h)
	}
	if h.P50 != int64(20*time.Millisecond) {
		t.Errorf("pooled P50 = %v, want 20ms", time.Duration(h.P50))
	}

	// One row per key: rows are sorted and unique.
	seen := make(map[string]bool)
	for _, ms := range s.Metrics {
		key := ms.Name
		for _, l := range ms.Labels {
			key += "|" + l.Key + "=" + l.Value
		}
		if seen[key] {
			t.Errorf("duplicate merged row %q", key)
		}
		seen[key] = true
	}
}
