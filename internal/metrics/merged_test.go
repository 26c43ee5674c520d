package metrics

import (
	"bytes"
	"testing"
	"time"

	"mosquitonet/internal/sim"
)

func TestMergedSnapshotSumsAcrossRegistries(t *testing.T) {
	loopA, loopB := sim.New(1), sim.New(2)
	ra, rb := New(loopA), New(loopB)

	ra.Counter("stack.host.sent", L("host", "a")).Add(3)
	rb.Counter("stack.host.sent", L("host", "a")).Add(4) // same identity, other shard
	rb.Counter("stack.host.sent", L("host", "b")).Add(9) // only on shard B
	gauge(ra, "mip.ha.bindings", 2, L("host", "ha"))
	gauge(rb, "mip.ha.bindings", 5, L("host", "ha"))
	hist(ra, "mip.mh.registration_latency").Observe(10 * time.Millisecond)
	hist(rb, "mip.mh.registration_latency").Observe(30 * time.Millisecond)

	at := sim.Time(0).Add(8 * time.Second)
	s := MergedSnapshotFiltered(at, nil, ra, rb)
	if s.At != int64(8*time.Second) {
		t.Fatalf("At = %d", s.At)
	}
	if m := s.Get("stack.host.sent", L("host", "a")); m == nil || *m.Counter != 7 {
		t.Fatalf("merged counter: %+v", m)
	}
	if m := s.Get("stack.host.sent", L("host", "b")); m == nil || *m.Counter != 9 {
		t.Fatalf("single-shard counter: %+v", m)
	}
	if m := s.Get("mip.ha.bindings", L("host", "ha")); m == nil || *m.Gauge != 7 {
		t.Fatalf("merged gauge: %+v", m)
	}
	if m := s.Get("mip.mh.registration_latency"); m == nil || m.Histogram.Count != 2 ||
		m.Histogram.Min != int64(10*time.Millisecond) || m.Histogram.Max != int64(30*time.Millisecond) {
		t.Fatalf("merged histogram: %+v", m.Histogram)
	}
}

func TestMergedSnapshotDeterministicOrder(t *testing.T) {
	build := func(order bool) []byte {
		loopA, loopB := sim.New(1), sim.New(2)
		ra, rb := New(loopA), New(loopB)
		ra.Counter("z.last").Inc()
		rb.Counter("a.first").Add(2)
		regs := []*Registry{ra, rb}
		if order {
			regs = []*Registry{rb, ra}
		}
		var buf bytes.Buffer
		if err := MergedSnapshotFiltered(sim.Time(0), nil, regs...).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(build(false), build(true)) {
		t.Fatal("merged snapshot depends on registry argument order")
	}
}

func TestMergedSnapshotKindMismatchPanics(t *testing.T) {
	loopA, loopB := sim.New(1), sim.New(2)
	ra, rb := New(loopA), New(loopB)
	ra.Counter("layer.obj.thing")
	gauge(rb, "layer.obj.thing", 0)
	defer func() {
		if recover() == nil {
			t.Fatal("cross-registry kind mismatch must panic")
		}
	}()
	MergedSnapshotFiltered(sim.Time(0), nil, ra, rb)
}

func TestMergedSnapshotNilRegistrySkipped(t *testing.T) {
	loop := sim.New(1)
	r := New(loop)
	r.Counter("x").Inc()
	s := MergedSnapshotFiltered(sim.Time(0), nil, nil, r, nil)
	if m := s.Get("x"); m == nil || *m.Counter != 1 {
		t.Fatalf("nil registries must be skipped: %+v", m)
	}
}
