// Package metrics is the simulator's unified telemetry layer: a
// simulation-time-aware registry of labeled counters, gauges, and duration
// histograms, plus a snapshot API that renders a human-readable table or
// deterministic JSON.
//
// Everything is keyed to virtual time (sim.Time); no wall clock is ever
// consulted, so two runs with the same seed produce byte-identical
// snapshots — the property that turns the paper's evaluation into a
// reproducible benchmark trajectory rather than a set of one-off numbers.
//
// Metric names follow the layer.object.event convention, e.g.
// "link.device.tx_packets" or "mip.mh.registration_latency", with labels
// for the instance ("dev", "host", "vif", ...). Every row comes from a
// collector (Registry.Collect) that emits it at snapshot time. Rows with
// the same name and labels are summed (histograms pooled); this is how a
// fleet of mobile hosts with identically named devices aggregates cleanly.
// Emitting the same name and labels as two metric kinds is a programming
// error and panics when the snapshot is taken.
//
// A nil *Registry is valid everywhere: Collect is a no-op and Counter
// hands out a detached handle that counts normally but appears in no
// snapshot, so instrumented code never needs nil checks and costs almost
// nothing when telemetry is disabled.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"mosquitonet/internal/sim"
)

// Label is one name/value pair qualifying a metric.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing count. All methods, like those of
// Histogram, tolerate a nil receiver, so a handle field left unset behaves
// like a detached handle rather than crashing.
type Counter struct{ v uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v++
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v += n
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Histogram accumulates duration samples and reports count, sum, extrema,
// and nearest-rank quantiles. Samples are retained, so quantiles are exact
// and deterministic.
type Histogram struct {
	samples []time.Duration
	sum     time.Duration
}

// Observe records one sample.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.samples = append(h.samples, d)
	h.sum += d
}

// N returns the sample count.
func (h *Histogram) N() int {
	if h == nil {
		return 0
	}
	return len(h.samples)
}

// Quantile returns the q-th quantile (0 < q <= 1) by nearest rank, or zero
// for an empty histogram.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil || len(h.samples) == 0 {
		return 0
	}
	return quantileOf(sortedCopy(h.samples), q)
}

func sortedCopy(in []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), in...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func quantileOf(sorted []time.Duration, q float64) time.Duration {
	rank := int(q*float64(len(sorted)) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Kind discriminates the metric types.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// entry is one snapshot row while it is being gathered: every row emitted
// under its key, added up as it arrives.
type entry struct {
	name    string
	labels  []Label // sorted by key, then value
	kind    Kind
	counter uint64
	gauge   int64
	hist    Histogram // pooled samples, owned by the entry
}

func metricKey(name string, labels []Label) string {
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte('|')
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

func sortLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Value < out[j].Value
	})
	return out
}

// Registry holds a simulation's metrics, keyed to its virtual clock.
type Registry struct {
	loop       *sim.Loop
	collectors []func(*Collection)
	lists      []any // *objects[T] for each T given to Add
}

// New creates a registry on the given clock with a collector for the
// loop's own telemetry (events dispatched, event-queue depth and
// high-water mark).
func New(loop *sim.Loop) *Registry {
	r := &Registry{loop: loop}
	r.Collect(func(c *Collection) {
		c.Counter("sim.loop.events_dispatched", loop.Executed())
		c.Gauge("sim.loop.queue_depth", int64(loop.Len()))
		c.Gauge("sim.loop.queue_high_water", int64(loop.QueueHighWater()))
	})
	return r
}

// Counter returns a new counter handle and a collector that emits its
// value. A nil registry returns a detached handle that counts but is never
// snapshotted.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	c := &Counter{}
	labels = sortLabels(labels) // the caller may reuse its slice
	r.Collect(func(col *Collection) { col.Counter(name, c.v, labels...) })
	return c
}

// Collection gathers the rows of one snapshot while it is being built,
// from every collector of every registry in it. Rows under the same
// (name, labels) key add up as they arrive — counters and gauges sum,
// histogram samples pool — so what a snapshot shows never depends on how
// its producers were split into collectors or registries.
type Collection struct {
	entries map[string]*entry
	keep    func(name string) bool // nil keeps every row
}

// add returns the entry for (name, labels), or nil when keep rejects the
// name. A key already gathered as another kind panics.
func (c *Collection) add(name string, kind Kind, labels []Label) *entry {
	if c.keep != nil && !c.keep(name) {
		return nil
	}
	labels = sortLabels(labels)
	key := metricKey(name, labels)
	e, ok := c.entries[key]
	if !ok {
		e = &entry{name: name, labels: labels, kind: kind}
		c.entries[key] = e
	} else if e.kind != kind {
		panic(fmt.Sprintf("metrics: %q registered as both %v and %v", key, e.kind, kind))
	}
	return e
}

// Counter emits one counter row with the given value.
func (c *Collection) Counter(name string, v uint64, labels ...Label) {
	if e := c.add(name, KindCounter, labels); e != nil {
		e.counter += v
	}
}

// Gauge emits one gauge row with the given value.
func (c *Collection) Gauge(name string, v int64, labels ...Label) {
	if e := c.add(name, KindGauge, labels); e != nil {
		e.gauge += v
	}
}

// Histogram emits one histogram row with h's samples (copied into the
// row; a nil h emits an empty one). A zero-valued metrics.Histogram is a
// valid detached handle, so an object keeps observing into its own
// histogram and emits it here.
func (c *Collection) Histogram(name string, h *Histogram, labels ...Label) {
	if e := c.add(name, KindHistogram, labels); e != nil && h != nil {
		e.hist.samples = append(e.hist.samples, h.samples...)
		e.hist.sum += h.sum
	}
}

// Collect registers fn to run at snapshot time; it is the only way a row
// reaches a snapshot. An object with dozens of metrics costs one closure
// in the registry, whatever the number of rows it emits. Collectors run in
// registration order. No-op on a nil registry.
func (r *Registry) Collect(fn func(*Collection)) {
	if r == nil || fn == nil {
		return
	}
	r.collectors = append(r.collectors, fn)
}

// objects is a registry's list of the objects of one type and the function
// that emits one object's rows.
type objects[T any] struct {
	all  []T
	emit func(T, *Collection)
}

func (o *objects[T]) collect(c *Collection) {
	for _, x := range o.all {
		o.emit(x, c)
	}
}

// Add puts obj on the registry's list of objects of type T. The first Add of
// a T registers the list's one collector, which calls emit for every object
// on it, in the order they were added; later Adds of a T keep that emit, so
// a type is added from one place. A layer that makes an object per host
// (a device, a tunnel endpoint, a host, a mobile host) thereby costs the
// registry one pointer per object, not one closure. Rows add up under their
// key whatever collector emits them, so a snapshot is the same as with one
// collector per object. No-op on a nil registry.
func Add[T any](r *Registry, obj T, emit func(T, *Collection)) {
	if r == nil {
		return
	}
	for _, l := range r.lists {
		if o, ok := l.(*objects[T]); ok {
			o.all = append(o.all, obj)
			return
		}
	}
	o := &objects[T]{all: []T{obj}, emit: emit}
	r.lists = append(r.lists, o)
	r.Collect(o.collect)
}

// HistogramSummary is a histogram's rendered state. Durations are in
// nanoseconds of virtual time.
type HistogramSummary struct {
	Count uint64 `json:"count"`
	Sum   int64  `json:"sum_ns"`
	Min   int64  `json:"min_ns"`
	Max   int64  `json:"max_ns"`
	Mean  int64  `json:"mean_ns"`
	P50   int64  `json:"p50_ns"`
	P90   int64  `json:"p90_ns"`
	P99   int64  `json:"p99_ns"`
}

// MetricSnapshot is one metric's rendered state. Exactly one of Counter,
// Gauge, Histogram is set, per Kind.
type MetricSnapshot struct {
	Name      string            `json:"name"`
	Labels    []Label           `json:"labels,omitempty"`
	Kind      string            `json:"kind"`
	Counter   *uint64           `json:"counter,omitempty"`
	Gauge     *int64            `json:"gauge,omitempty"`
	Histogram *HistogramSummary `json:"histogram,omitempty"`
}

func (m *MetricSnapshot) labelString() string {
	if len(m.Labels) == 0 {
		return ""
	}
	parts := make([]string, len(m.Labels))
	for i, l := range m.Labels {
		parts[i] = l.Key + "=" + l.Value
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Snapshot is a point-in-time rendering of a registry, ordered by metric
// name and labels so it serializes deterministically.
type Snapshot struct {
	// Name optionally scopes the snapshot (e.g. an experiment scenario).
	Name    string           `json:"name,omitempty"`
	At      int64            `json:"at_ns"`
	AtHuman string           `json:"at"`
	Metrics []MetricSnapshot `json:"metrics"`
}

// Snapshot renders the registry's current state.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return &Snapshot{}
	}
	return snapshotAt(r.loop.Now(), nil, r)
}

// snapshotAt renders one or more registries as a single snapshot, keeping
// only rows whose name passes keep (nil keeps all).
func snapshotAt(at sim.Time, keep func(string) bool, regs ...*Registry) *Snapshot {
	s := &Snapshot{At: int64(at.Duration()), AtHuman: at.String()}
	c := &Collection{entries: make(map[string]*entry), keep: keep}
	for _, r := range regs {
		if r == nil {
			continue
		}
		for _, fn := range r.collectors {
			fn(c)
		}
	}
	keys := make([]string, 0, len(c.entries))
	for k := range c.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s.Metrics = append(s.Metrics, renderEntry(c.entries[k]))
	}
	return s
}

// renderEntry renders a gathered entry as one MetricSnapshot row.
func renderEntry(e *entry) MetricSnapshot {
	ms := MetricSnapshot{Name: e.name, Labels: e.labels, Kind: e.kind.String()}
	switch e.kind {
	case KindCounter:
		ms.Counter = &e.counter
	case KindGauge:
		ms.Gauge = &e.gauge
	case KindHistogram:
		all := e.hist.samples
		hs := &HistogramSummary{Count: uint64(len(all)), Sum: int64(e.hist.sum)}
		if len(all) > 0 {
			sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
			hs.Min = int64(all[0])
			hs.Max = int64(all[len(all)-1])
			hs.Mean = int64(e.hist.sum) / int64(len(all))
			hs.P50 = int64(quantileOf(all, 0.50))
			hs.P90 = int64(quantileOf(all, 0.90))
			hs.P99 = int64(quantileOf(all, 0.99))
		}
		ms.Histogram = hs
	}
	return ms
}

// MergedSnapshotFiltered renders several registries as one snapshot, as if
// every collector had been registered in a single registry: rows with the
// same name and labels are summed (histograms pooled), and the result is
// sorted by key exactly like Snapshot — so the merge of per-shard
// registries never depends on which goroutine ran which shard. at is the
// virtual timestamp to stamp (the shards' common barrier time). The name
// filter keep (nil keeps all) applies while rows are gathered: rows whose
// name fails it are never materialized, which is what lets a 100k-host
// fleet export its handful of sim.* aggregates without first building the
// millions of per-host rows its collectors could emit. Mixing kinds under
// one key, within a registry or across them, panics.
func MergedSnapshotFiltered(at sim.Time, keep func(name string) bool, regs ...*Registry) *Snapshot {
	return snapshotAt(at, keep, regs...)
}

// Get returns the snapshot row matching name and labels, or nil. Intended
// for tests and assertions; label order is irrelevant.
func (s *Snapshot) Get(name string, labels ...Label) *MetricSnapshot {
	want := metricKey(name, sortLabels(labels))
	for i := range s.Metrics {
		if metricKey(s.Metrics[i].Name, s.Metrics[i].Labels) == want {
			return &s.Metrics[i]
		}
	}
	return nil
}

// Table renders the snapshot as an aligned human-readable table.
func (s *Snapshot) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "metrics @ %s\n", s.AtHuman)
	width := 0
	rows := make([]string, len(s.Metrics))
	for i := range s.Metrics {
		rows[i] = s.Metrics[i].Name + s.Metrics[i].labelString()
		if len(rows[i]) > width {
			width = len(rows[i])
		}
	}
	for i := range s.Metrics {
		m := &s.Metrics[i]
		fmt.Fprintf(&b, "  %-*s ", width, rows[i])
		switch {
		case m.Counter != nil:
			fmt.Fprintf(&b, "%d", *m.Counter)
		case m.Gauge != nil:
			fmt.Fprintf(&b, "%d", *m.Gauge)
		case m.Histogram != nil:
			h := m.Histogram
			fmt.Fprintf(&b, "n=%d mean=%v p50=%v p90=%v p99=%v max=%v",
				h.Count, time.Duration(h.Mean), time.Duration(h.P50),
				time.Duration(h.P90), time.Duration(h.P99), time.Duration(h.Max))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// WriteJSON writes the snapshot as indented JSON. The output is
// byte-identical across same-seed runs.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// --- per-loop association ------------------------------------------------
//
// Constructors deep in the stack (devices, hosts, tunnel endpoints) find
// their simulation's registry through the loop they are already handed,
// so enabling telemetry requires no signature changes anywhere. The
// registry and the packet log are attachments of the loop (sim.Loop.Local):
// they are reachable only through it and are collected with it.

type (
	registryKey  struct{}
	packetLogKey struct{}
)

// Enable creates (or returns) the registry associated with loop. Call it
// immediately after sim.New, before building devices and hosts, so their
// constructors find it.
func Enable(loop *sim.Loop) *Registry {
	if r := For(loop); r != nil {
		return r
	}
	r := New(loop)
	loop.SetLocal(registryKey{}, r)
	return r
}

// For returns the registry associated with loop, or nil if telemetry was
// never enabled for it. All Registry methods accept the nil result.
func For(loop *sim.Loop) *Registry {
	r, _ := loop.Local(registryKey{}).(*Registry)
	return r
}

// TracePackets creates (or returns) the packet-lifecycle log associated
// with loop, retaining at most limit events (default 16384 when limit<=0).
func TracePackets(loop *sim.Loop, limit int) *PacketLog {
	if l := PacketsFor(loop); l != nil {
		return l
	}
	l := NewPacketLog(loop, limit)
	loop.SetLocal(packetLogKey{}, l)
	return l
}

// PacketsFor returns loop's packet log, or nil. PacketLog methods accept
// the nil result.
func PacketsFor(loop *sim.Loop) *PacketLog {
	l, _ := loop.Local(packetLogKey{}).(*PacketLog)
	return l
}

// Release detaches loop's registry and packet log while the loop lives on:
// what is built on it afterwards finds no telemetry. A loop that is simply
// dropped needs no Release.
func Release(loop *sim.Loop) {
	loop.SetLocal(registryKey{}, nil)
	loop.SetLocal(packetLogKey{}, nil)
}
