package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/sim"
)

// Attr is one key/value annotation on a span. Attrs are kept in first-set
// order and setting an existing key replaces its value, so a span's
// serialized form depends only on the sequence of SetAttr calls — never on
// map iteration order.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed operation in the causal span tree: a handoff, a DHCP
// acquisition, a registration attempt (including its retries), a hook-chain
// traversal. Start and End are sim-time instants, so a span's duration is
// the virtual cost of the operation, and two same-seed runs produce
// identical span trees. A nil *Span is valid everywhere and records
// nothing, mirroring the nil-Tracer contract.
type Span struct {
	ID     uint64   `json:"id"`
	Parent uint64   `json:"parent,omitempty"`
	Kind   string   `json:"kind"` // lowercase dotted constant, e.g. "handoff.cold"
	Actor  string   `json:"actor"`
	Start  sim.Time `json:"start_ns"`
	End    sim.Time `json:"end_ns"`
	Attrs  []Attr   `json:"attrs,omitempty"`

	// openOn is the tracer the span is open on, nil once it is closed;
	// doubling as the open flag keeps a Span in the 112-byte size class.
	openOn *Tracer
	// below and above link an open span into its actor's ambient stack,
	// older spans below; the tracer's active map holds the top.
	below, above *Span
}

// StartSpan opens a span for actor. The span is parented to the innermost
// span still open for the same actor (the per-actor ambient context), so
// nested operations — a DHCP acquisition inside a cold switch — form a
// tree without any explicit plumbing. Use StartChild to parent across
// actors or to override the ambient context.
func (t *Tracer) StartSpan(actor, kind string) *Span {
	if t == nil {
		return nil
	}
	var parent uint64
	if top := t.active[actor]; top != nil {
		parent = top.ID
	}
	return t.startSpan(parent, actor, kind)
}

// StartChild opens a span explicitly parented to parent (nil parent means
// a root span), bypassing the ambient per-actor context.
func (t *Tracer) StartChild(parent *Span, actor, kind string) *Span {
	if t == nil {
		return nil
	}
	var pid uint64
	if parent != nil {
		pid = parent.ID
	}
	return t.startSpan(pid, actor, kind)
}

func (t *Tracer) startSpan(parent uint64, actor, kind string) *Span {
	t.nextSpanID++
	s := &Span{
		ID:     t.nextSpanID,
		Parent: parent,
		Kind:   kind,
		Actor:  actor,
		Start:  t.loop.Now(),
		openOn: t,
	}
	if t.active == nil {
		t.active = make(map[string]*Span)
	}
	if top := t.active[actor]; top != nil {
		s.below, top.above = top, s
	}
	t.active[actor] = s
	*t.spans.Next() = s
	return s
}

// SetAttr annotates the span, replacing any previous value for key.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	for i := range s.Attrs {
		if s.Attrs[i].Key == key {
			s.Attrs[i].Value = value
			return
		}
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
}

// SetUint and SetAddr are SetAttr for a number and for an address, rendered
// only if the span exists: a nil span costs a nil check, a live one no fmt.
func (s *Span) SetUint(key string, v uint64) {
	if s != nil {
		s.SetAttr(key, strconv.FormatUint(v, 10))
	}
}

func (s *Span) SetAddr(key string, a ip.Addr) {
	if s != nil {
		s.SetAttr(key, a.String())
	}
}

// Attr returns the span's value for key, if set.
func (s *Span) Attr(key string) (string, bool) {
	if s == nil {
		return "", false
	}
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// Done closes the span at the current virtual time and pops it from the
// ambient per-actor context. Closing an already-closed (or nil) span is a
// no-op, so error paths can call Done defensively.
func (s *Span) Done() {
	if s == nil || s.openOn == nil {
		return
	}
	t := s.openOn
	s.End = t.loop.Now()
	s.openOn = nil
	// Unlink from the actor's ambient stack wherever it sits: spans end in
	// callback order, which is not always LIFO (a PUBACK closes the oldest
	// publish). A span that is not where its links say — orphaned by Reset,
	// or a copy from Spans — only closes.
	if a := s.above; a != nil {
		if a.below == s {
			a.below = s.below
			if s.below != nil {
				s.below.above = a
			}
		}
	} else if t.active[s.Actor] == s {
		t.active[s.Actor] = s.below
		if s.below != nil {
			s.below.above = nil
		}
	}
	s.below, s.above = nil, nil
}

// Fail annotates the span with err (when non-nil) and closes it.
func (s *Span) Fail(err error) {
	if s == nil {
		return
	}
	if err != nil {
		s.SetAttr("err", err.Error())
	}
	s.Done()
}

// Open reports whether the span has not yet been closed.
func (s *Span) Open() bool { return s != nil && s.openOn != nil }

// Duration returns the span's virtual duration (zero while open).
func (s *Span) Duration() sim.Time {
	if s == nil || s.openOn != nil {
		return 0
	}
	return s.End - s.Start
}

// Spans returns copies of the retained spans in start order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	src := t.spans.All()
	out := make([]Span, len(src))
	for i, s := range src {
		out[i] = *s
		out[i].Attrs = append([]Attr(nil), s.Attrs...)
	}
	return out
}

// FindSpans returns copies of the retained spans whose kind has one of the
// given prefixes (all spans when none are given), in start order.
func (t *Tracer) FindSpans(kindPrefixes ...string) []Span {
	if t == nil {
		return nil
	}
	var out []Span
	for _, s := range t.spans.All() {
		if len(kindPrefixes) == 0 || hasAnyPrefix(s.Kind, kindPrefixes) {
			c := *s
			c.Attrs = append([]Attr(nil), s.Attrs...)
			out = append(out, c)
		}
	}
	return out
}

func hasAnyPrefix(kind string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(kind, p) {
			return true
		}
	}
	return false
}

// DroppedSpans returns how many spans the ring has evicted.
func (t *Tracer) DroppedSpans() uint64 {
	if t == nil {
		return 0
	}
	return t.spans.Dropped()
}

// WriteSpansJSONL writes the retained spans as one JSON object per line,
// in start order — the span-side analogue of WriteJSONL.
func (t *Tracer) WriteSpansJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	for _, s := range t.spans.All() {
		b, err := json.Marshal(s)
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// SpanTree renders the retained spans as an indented tree, children under
// parents, ordered by (start, id). Spans whose kind matches one of the
// exclude prefixes are omitted (with their subtrees re-rooted), which keeps
// high-volume chain-traversal spans out of a lifecycle overview.
func (t *Tracer) SpanTree(excludePrefixes ...string) string {
	if t == nil {
		return ""
	}
	spans := t.spans.All()
	children := make(map[uint64][]*Span)
	present := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		present[s.ID] = true
	}
	var roots []*Span
	for _, s := range spans {
		if len(excludePrefixes) > 0 && hasAnyPrefix(s.Kind, excludePrefixes) {
			continue
		}
		if s.Parent != 0 && present[s.Parent] {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			// Root, or the parent was evicted/excluded: re-root here.
			roots = append(roots, s)
		}
	}
	var b strings.Builder
	var render func(s *Span, depth int)
	render = func(s *Span, depth int) {
		fmt.Fprintf(&b, "%12v %s%s %s", s.Start, strings.Repeat("  ", depth), s.Kind, s.Actor)
		if s.openOn != nil {
			b.WriteString(" (open)")
		} else {
			fmt.Fprintf(&b, " (%v)", s.End.Sub(s.Start))
		}
		for _, a := range s.Attrs {
			fmt.Fprintf(&b, " %s=%s", a.Key, a.Value)
		}
		b.WriteByte('\n')
		for _, c := range children[s.ID] {
			render(c, depth+1)
		}
	}
	for _, r := range roots {
		if r.Parent != 0 && present[r.Parent] && !excludedParent(spans, r.Parent, excludePrefixes) {
			continue // rendered under its parent
		}
		render(r, 0)
	}
	return b.String()
}

// excludedParent reports whether the span with the given id matches one of
// the exclude prefixes (so its children were re-rooted).
func excludedParent(spans []*Span, id uint64, excludePrefixes []string) bool {
	if len(excludePrefixes) == 0 {
		return false
	}
	for _, s := range spans {
		if s.ID == id {
			return hasAnyPrefix(s.Kind, excludePrefixes)
		}
	}
	return false
}

// SpanKindCounts returns (kind, count) pairs for the retained spans,
// sorted by kind — the summary introspection mnet -spans prints.
func (t *Tracer) SpanKindCounts() []struct {
	Kind  string
	Count int
} {
	if t == nil {
		return nil
	}
	counts := make(map[string]int)
	for _, s := range t.spans.All() {
		counts[s.Kind]++
	}
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	out := make([]struct {
		Kind  string
		Count int
	}, len(kinds))
	for i, k := range kinds {
		out[i].Kind, out[i].Count = k, counts[k]
	}
	return out
}

// --- Chrome trace-event export -------------------------------------------

// chromeEvent is one entry of the Chrome trace-event format ("X" complete
// spans, "i" instants, "M" metadata), loadable by chrome://tracing and
// Perfetto. Field order is fixed by the struct, and args maps marshal with
// sorted keys, so the export is byte-deterministic.
type chromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat,omitempty"`
	Phase string            `json:"ph"`
	TS    float64           `json:"ts"` // microseconds of virtual time
	Dur   *float64          `json:"dur,omitempty"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Scope string            `json:"s,omitempty"`
	Args  map[string]string `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports the retained spans and events in the Chrome
// trace-event JSON format: one "thread" per actor, spans as complete ("X")
// events with their attrs as args, plain trace events as thread-scoped
// instants. Load the output in chrome://tracing or ui.perfetto.dev to see
// the handoff span tree on a timeline.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return nil
	}
	spans := t.spans.All()
	events := t.Events()

	// Stable actor -> tid mapping, alphabetical.
	actorSet := make(map[string]bool)
	for _, s := range spans {
		actorSet[s.Actor] = true
	}
	for _, e := range events {
		actorSet[e.Actor] = true
	}
	actors := make([]string, 0, len(actorSet))
	for a := range actorSet {
		actors = append(actors, a)
	}
	sort.Strings(actors)
	tid := make(map[string]int, len(actors))
	for i, a := range actors {
		tid[a] = i + 1
	}

	out := chromeTrace{DisplayTimeUnit: "ms"}
	out.TraceEvents = append(out.TraceEvents, chromeEvent{
		Name: "process_name", Phase: "M", PID: 1, TID: 0,
		Args: map[string]string{"name": "mosquitonet"},
	})
	for _, a := range actors {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Phase: "M", PID: 1, TID: tid[a],
			Args: map[string]string{"name": a},
		})
	}
	for _, s := range spans {
		end := s.End
		if s.openOn != nil || end < s.Start {
			end = s.Start
		}
		dur := float64(end.Sub(s.Start).Nanoseconds()) / 1e3
		ev := chromeEvent{
			Name: s.Kind, Cat: "span", Phase: "X",
			TS: float64(s.Start.Duration().Nanoseconds()) / 1e3, Dur: &dur,
			PID: 1, TID: tid[s.Actor],
		}
		if len(s.Attrs) > 0 || s.Parent != 0 {
			ev.Args = make(map[string]string, len(s.Attrs)+1)
			for _, a := range s.Attrs {
				ev.Args[a.Key] = a.Value
			}
			if s.Parent != 0 {
				ev.Args["parent_span"] = fmt.Sprintf("%d", s.Parent)
			}
		}
		out.TraceEvents = append(out.TraceEvents, ev)
	}
	for _, e := range events {
		ev := chromeEvent{
			Name: e.Kind, Cat: "event", Phase: "i",
			TS:  float64(e.At.Duration().Nanoseconds()) / 1e3,
			PID: 1, TID: tid[e.Actor], Scope: "t",
		}
		if e.Detail != "" {
			ev.Args = map[string]string{"detail": e.Detail}
		}
		out.TraceEvents = append(out.TraceEvents, ev)
	}

	b, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
