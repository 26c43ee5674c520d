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
// for the instance ("dev", "host", "vif", ...). Registering the same name
// and labels twice is allowed and yields independent handles whose values
// are summed in snapshots; this is how a fleet of mobile hosts with
// identically named devices aggregates cleanly. Registering the same name
// and labels as a different metric kind is a programming error and panics.
//
// A nil *Registry is valid everywhere: its constructors hand out detached
// handles that count normally but appear in no snapshot, so instrumented
// code never needs nil checks and costs almost nothing when telemetry is
// disabled.
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
// the other handle types, tolerate a nil receiver, so a handle field left
// unset behaves like a detached handle rather than crashing.
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

// Gauge is an instantaneous value that can move both ways.
type Gauge struct{ v int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v = v
}

// Add adds d (which may be negative).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v += d
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
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

// Sum returns the sum of all samples.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return h.sum
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

// source is one registered producer under a metric key. Exactly one field
// is set, according to the entry's kind.
type source struct {
	counter   *Counter
	counterFn func() uint64
	gauge     *Gauge
	gaugeFn   func() int64
	hist      *Histogram
}

type entry struct {
	name    string
	labels  []Label // sorted by key, then value
	kind    Kind
	sources []source
}

func (e *entry) key() string { return metricKey(e.name, e.labels) }

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
	entries    map[string]*entry
	collectors []func(*Collection)
}

// New creates a registry on the given clock and registers the loop's own
// telemetry (events dispatched, event-queue depth and high-water mark).
func New(loop *sim.Loop) *Registry {
	r := &Registry{loop: loop, entries: make(map[string]*entry)}
	r.CounterFunc("sim.loop.events_dispatched", loop.Executed)
	r.GaugeFunc("sim.loop.queue_depth", func() int64 { return int64(loop.Len()) })
	r.GaugeFunc("sim.loop.queue_high_water", func() int64 { return int64(loop.QueueHighWater()) })
	return r
}

// Loop returns the clock the registry reads snapshot timestamps from.
func (r *Registry) Loop() *sim.Loop {
	if r == nil {
		return nil
	}
	return r.loop
}

// register appends a source under (name, labels), enforcing kind
// consistency. It is the common path of all the constructors below.
func (r *Registry) register(name string, kind Kind, labels []Label, s source) {
	labels = sortLabels(labels)
	key := metricKey(name, labels)
	e, ok := r.entries[key]
	if !ok {
		e = &entry{name: name, labels: labels, kind: kind}
		r.entries[key] = e
	} else if e.kind != kind {
		panic(fmt.Sprintf("metrics: %q registered as both %v and %v", key, e.kind, kind))
	}
	e.sources = append(e.sources, s)
}

// Counter registers and returns a new counter handle. A nil registry
// returns a detached handle that counts but is never snapshotted.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	c := &Counter{}
	if r != nil {
		r.register(name, KindCounter, labels, source{counter: c})
	}
	return c
}

// CounterFunc registers a counter whose value is polled from fn at
// snapshot time — the usual way existing stats structs are exposed without
// restructuring their increment sites. No-op on a nil registry.
func (r *Registry) CounterFunc(name string, fn func() uint64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(name, KindCounter, labels, source{counterFn: fn})
}

// Gauge registers and returns a new gauge handle.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	g := &Gauge{}
	if r != nil {
		r.register(name, KindGauge, labels, source{gauge: g})
	}
	return g
}

// GaugeFunc registers a gauge polled from fn at snapshot time.
func (r *Registry) GaugeFunc(name string, fn func() int64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(name, KindGauge, labels, source{gaugeFn: fn})
}

// Histogram registers and returns a new histogram handle.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	h := &Histogram{}
	if r != nil {
		r.register(name, KindHistogram, labels, source{hist: h})
	}
	return h
}

// Collection gathers the rows of one snapshot while it is being built:
// the registry's persistent entries plus everything the registered
// collectors emit. Collector-emitted rows merge with registered handles
// under the same (name, labels) key exactly as a second registered source
// would — counters sum, histogram samples pool — so converting a roster
// of per-object handles to a collector never changes snapshot bytes.
type Collection struct {
	entries map[string]*entry
	keep    func(name string) bool // nil keeps every row
}

func (c *Collection) add(name string, kind Kind, labels []Label, s source) {
	if c.keep != nil && !c.keep(name) {
		return
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
	e.sources = append(e.sources, s)
}

// Counter emits one counter row with the given value.
func (c *Collection) Counter(name string, v uint64, labels ...Label) {
	c.add(name, KindCounter, labels, source{counter: &Counter{v: v}})
}

// Gauge emits one gauge row with the given value.
func (c *Collection) Gauge(name string, v int64, labels ...Label) {
	c.add(name, KindGauge, labels, source{gauge: &Gauge{v: v}})
}

// Histogram emits one histogram row backed by h's samples (not copied; the
// snapshot renders them immediately). A zero-valued metrics.Histogram is a
// valid detached handle, so objects converted to collectors keep observing
// into their own histogram and emit it here.
func (c *Collection) Histogram(name string, h *Histogram, labels ...Label) {
	if h == nil {
		h = &Histogram{}
	}
	c.add(name, KindHistogram, labels, source{hist: h})
}

// Collect registers fn to run at snapshot time. It is the memory-light
// alternative to registering a roster of per-object CounterFunc/Histogram
// handles: an object with dozens of metrics costs one closure in the
// registry instead of dozens of map entries, and the snapshot output is
// byte-identical. Collectors run in registration order after the
// persistent entries are merged. No-op on a nil registry.
func (r *Registry) Collect(fn func(*Collection)) {
	if r == nil || fn == nil {
		return
	}
	r.collectors = append(r.collectors, fn)
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

// mergeInto folds one registry's rows into the collection: persistent
// entries first, then whatever its collectors emit. The per-key source
// order (registration order, collectors after handles) is a function of
// construction alone, so snapshot bytes never depend on which goroutine
// ran which shard.
func (r *Registry) mergeInto(c *Collection) {
	for k, e := range r.entries {
		if c.keep != nil && !c.keep(e.name) {
			continue
		}
		m, ok := c.entries[k]
		if !ok {
			m = &entry{name: e.name, labels: e.labels, kind: e.kind}
			c.entries[k] = m
		} else if m.kind != e.kind {
			panic(fmt.Sprintf("metrics: %q registered as both %v and %v across merged registries", k, m.kind, e.kind))
		}
		m.sources = append(m.sources, e.sources...)
	}
	for _, fn := range r.collectors {
		fn(c)
	}
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
		r.mergeInto(c)
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

// renderEntry sums an entry's sources into one MetricSnapshot row; the
// shared rendering path of Snapshot and MergedSnapshot.
func renderEntry(e *entry) MetricSnapshot {
	ms := MetricSnapshot{Name: e.name, Labels: e.labels, Kind: e.kind.String()}
	switch e.kind {
	case KindCounter:
		var total uint64
		for _, src := range e.sources {
			if src.counterFn != nil {
				total += src.counterFn()
			} else {
				total += src.counter.Value()
			}
		}
		ms.Counter = &total
	case KindGauge:
		var total int64
		for _, src := range e.sources {
			if src.gaugeFn != nil {
				total += src.gaugeFn()
			} else {
				total += src.gauge.Value()
			}
		}
		ms.Gauge = &total
	case KindHistogram:
		var all []time.Duration
		var sum time.Duration
		for _, src := range e.sources {
			all = append(all, src.hist.samples...)
			sum += src.hist.sum
		}
		hs := &HistogramSummary{Count: uint64(len(all)), Sum: int64(sum)}
		if len(all) > 0 {
			sorted := sortedCopy(all)
			hs.Min = int64(sorted[0])
			hs.Max = int64(sorted[len(sorted)-1])
			hs.Mean = int64(sum) / int64(len(all))
			hs.P50 = int64(quantileOf(sorted, 0.50))
			hs.P90 = int64(quantileOf(sorted, 0.90))
			hs.P99 = int64(quantileOf(sorted, 0.99))
		}
		ms.Histogram = hs
	}
	return ms
}

// MergedSnapshot renders several registries as one snapshot, as if every
// source had been registered in a single registry: rows with the same
// name and labels are summed (histograms pooled), and the result is
// sorted by key exactly like Snapshot. The sharded scale experiment uses
// it to merge per-shard registries deterministically — the merge depends
// only on registration content, never on which goroutine ran which shard.
// at is the virtual timestamp to stamp (the shards' common barrier time).
// Mixing kinds under one key across registries panics, as it would within
// one registry.
func MergedSnapshot(at sim.Time, regs ...*Registry) *Snapshot {
	return snapshotAt(at, nil, regs...)
}

// MergedSnapshotFiltered is MergedSnapshot with the name filter applied
// while rows are gathered rather than after: rows whose name fails keep
// are never materialized. This is what lets a 100k-host fleet export its
// handful of sim.* aggregates without first building the millions of
// per-host rows its collectors could emit.
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
