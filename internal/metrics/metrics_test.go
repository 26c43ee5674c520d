package metrics

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"mosquitonet/internal/sim"
)

// gauge and hist register a collector emitting one row, the way a layer's
// collector does.
func gauge(r *Registry, name string, v int64, labels ...Label) {
	r.Collect(func(c *Collection) { c.Gauge(name, v, labels...) })
}

func hist(r *Registry, name string, labels ...Label) *Histogram {
	h := &Histogram{}
	r.Collect(func(c *Collection) { c.Histogram(name, h, labels...) })
	return h
}

func TestDuplicateRegistrationAggregates(t *testing.T) {
	loop := sim.New(1)
	r := New(loop)
	// Two independent owners of the same metric identity (the A3 fleet
	// case: every mobile host names its device "eth"), and a collector
	// emitting a row under it too.
	a := r.Counter("link.device.tx_packets", L("dev", "eth"))
	b := r.Counter("link.device.tx_packets", L("dev", "eth"))
	if a == b {
		t.Fatal("duplicate registration must return distinct handles")
	}
	r.Collect(func(c *Collection) { c.Counter("link.device.tx_packets", 5, L("dev", "eth")) })
	a.Add(3)
	b.Add(4)
	m := r.Snapshot().Get("link.device.tx_packets", L("dev", "eth"))
	if m == nil || m.Counter == nil {
		t.Fatal("metric missing from snapshot")
	}
	if *m.Counter != 12 {
		t.Fatalf("aggregated counter = %d, want 12", *m.Counter)
	}
}

func TestLabelOrderIrrelevant(t *testing.T) {
	loop := sim.New(1)
	r := New(loop)
	a := r.Counter("x", L("b", "2"), L("a", "1"))
	b := r.Counter("x", L("a", "1"), L("b", "2"))
	a.Inc()
	b.Inc()
	m := r.Snapshot().Get("x", L("a", "1"), L("b", "2"))
	if m == nil || *m.Counter != 2 {
		t.Fatalf("label order must not split the metric: %+v", m)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	loop := sim.New(1)
	r := New(loop)
	r.Counter("layer.obj.thing")
	gauge(r, "layer.obj.thing", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("the same key as a different kind must panic at snapshot")
		}
	}()
	r.Snapshot()
}

func TestHistogramQuantiles(t *testing.T) {
	loop := sim.New(1)
	r := New(loop)
	h := hist(r, "mip.mh.registration_latency", L("host", "mh"))
	// 1ms..100ms; nearest-rank: p50 = 50th sample, p90 = 90th, p99 = 99th.
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 50 * time.Millisecond},
		{0.90, 90 * time.Millisecond},
		{0.99, 99 * time.Millisecond},
		{1.00, 100 * time.Millisecond},
	} {
		if got := h.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	m := r.Snapshot().Get("mip.mh.registration_latency", L("host", "mh"))
	if m == nil || m.Histogram == nil {
		t.Fatal("histogram missing from snapshot")
	}
	if m.Histogram.Count != 100 || m.Histogram.P50 != int64(50*time.Millisecond) {
		t.Fatalf("snapshot summary wrong: %+v", m.Histogram)
	}
}

func TestSnapshotDeterminism(t *testing.T) {
	// Two separate same-seed simulations performing the same work must
	// serialize byte-identically.
	build := func() []byte {
		loop := sim.New(42)
		r := Enable(loop)
		c := r.Counter("stack.host.sent", L("host", "mh"))
		h := hist(r, "mip.mh.registration_latency", L("host", "mh"))
		loop.Schedule(5*time.Millisecond, func() { c.Inc(); h.Observe(3 * time.Millisecond) })
		loop.RunFor(time.Second)
		var buf bytes.Buffer
		if err := r.Snapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed snapshots differ:\n%s\n---\n%s", a, b)
	}
}

// dev and vif stand in for two kinds of object a layer puts on its
// registry's lists.
type dev struct {
	name string
	tx   uint64
}

func (d *dev) collect(c *Collection) { c.Counter("link.device.tx_packets", d.tx, L("dev", d.name)) }

type vif struct{ n uint64 }

func (v *vif) collect(c *Collection) { c.Counter("tunnel.endpoint.encapsulated", v.n) }

// TestAddListsObjectsOfOneType: objects added by type share one collector
// per type, and the snapshot is the one a closure per object gives — rows
// under one key add up whichever collector emits them.
func TestAddListsObjectsOfOneType(t *testing.T) {
	objs := []*dev{{"eth", 3}, {"eth", 4}, {"radio", 5}}
	tun := &vif{7}
	listed, closures := New(sim.New(1)), New(sim.New(1))
	base := len(listed.collectors)
	for _, d := range objs {
		Add(listed, d, (*dev).collect)
		closures.Collect(d.collect)
	}
	Add(listed, tun, (*vif).collect)
	closures.Collect(tun.collect)
	if n := len(listed.collectors) - base; n != 2 {
		t.Fatalf("four objects of two types registered %d collectors, want 2", n)
	}
	var a, b bytes.Buffer
	if err := listed.Snapshot().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := closures.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("listed objects snapshot\n%s\nwant, as with a closure each,\n%s", a.String(), b.String())
	}
	if m := listed.Snapshot().Get("link.device.tx_packets", L("dev", "eth")); m == nil || *m.Counter != 7 {
		t.Fatalf("the two eth devices' row = %+v, want 7", m)
	}
	Add[*dev](nil, objs[0], (*dev).collect) // a nil registry takes nothing
}

func TestNilRegistryDetachedHandles(t *testing.T) {
	var r *Registry
	c := r.Counter("a.b.c")
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("detached counter must still count")
	}
	var h Histogram
	h.Observe(time.Millisecond)
	if h.N() != 1 {
		t.Fatal("detached histogram must still observe")
	}
	// Collectors and snapshots are no-ops, not crashes.
	gauge(r, "a.b.g", -2)
	r.Collect(func(c *Collection) { c.Histogram("a.b.h", &h) })
	if s := r.Snapshot(); len(s.Metrics) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestPerLoopAssociation(t *testing.T) {
	loop := sim.New(1)
	if For(loop) != nil {
		t.Fatal("loop must start with no registry")
	}
	r := Enable(loop)
	if Enable(loop) != r || For(loop) != r {
		t.Fatal("Enable/For must return the same registry per loop")
	}
	l := TracePackets(loop, 8)
	if PacketsFor(loop) != l {
		t.Fatal("TracePackets/PacketsFor must return the same log per loop")
	}
	Release(loop)
	if For(loop) != nil || PacketsFor(loop) != nil {
		t.Fatal("Release must detach the loop")
	}
}

func TestPacketLogRingAndTimeline(t *testing.T) {
	loop := sim.New(1)
	pl := NewPacketLog(loop, 4)
	pl.Record(0, "mh", "link.tx", "must be ignored") // untraced frames are skipped
	for i := 1; i <= 6; i++ {
		pl.Record(uint64(i), "mh", "link.tx", "")
	}
	if pl.Len() != 4 {
		t.Fatalf("ring length = %d, want 4", pl.Len())
	}
	if pl.Evicted() != 2 {
		t.Fatalf("evicted = %d, want 2", pl.Evicted())
	}
	ev := pl.Events()
	if ev[0].Pkt != 3 || ev[len(ev)-1].Pkt != 6 {
		t.Fatalf("ring must keep the newest events, got %+v", ev)
	}

	pl = NewPacketLog(loop, 4)
	pl.Record(7, "mh", "ip.output", "udp")
	pl.Record(8, "router", "ip.forward", "")
	pl.Record(7, "router", "ip.deliver", "udp")
	tl := pl.Timeline(7)
	if len(tl) != 2 || tl[0].Point != "ip.output" || tl[1].Point != "ip.deliver" {
		t.Fatalf("Timeline(7) = %+v", tl)
	}

	var buf bytes.Buffer
	if err := pl.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("JSONL lines = %d, want 3", len(lines))
	}
	if !strings.Contains(lines[0], `"pkt":7`) || !strings.Contains(lines[0], `"point":"ip.output"`) {
		t.Fatalf("bad JSONL line: %s", lines[0])
	}
}

func TestNextSerialMonotonic(t *testing.T) {
	loop := sim.New(1)
	if loop.NextSerial() != 1 || loop.NextSerial() != 2 {
		t.Fatal("NextSerial must count from 1")
	}
}

// The loop's queue gauges must report live events only: a Stop()ed timer
// leaves the queue immediately instead of lingering as a cancelled entry
// that inflates queue_depth and queue_high_water.
func TestQueueGaugesCountLiveEventsOnly(t *testing.T) {
	loop := sim.New(1)
	r := New(loop)
	timers := make([]sim.Timer, 50)
	for i := range timers {
		timers[i] = loop.Schedule(time.Duration(i+1)*time.Millisecond, func() {})
	}
	for _, tm := range timers {
		tm.Stop()
	}
	loop.Schedule(time.Millisecond, func() {})
	loop.Schedule(2*time.Millisecond, func() {})

	snap := r.Snapshot()
	depth := snap.Get("sim.loop.queue_depth")
	if depth == nil || depth.Gauge == nil {
		t.Fatal("queue_depth gauge missing from snapshot")
	}
	if *depth.Gauge != 2 {
		t.Fatalf("queue_depth = %d after cancelling 50 timers, want 2 live", *depth.Gauge)
	}
	hw := snap.Get("sim.loop.queue_high_water")
	if hw == nil || hw.Gauge == nil {
		t.Fatal("queue_high_water gauge missing from snapshot")
	}
	if *hw.Gauge != 50 {
		t.Fatalf("queue_high_water = %d, want 50 (the true live maximum)", *hw.Gauge)
	}
}
