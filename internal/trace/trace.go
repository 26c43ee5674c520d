// Package trace provides structured recording for experiments and
// debugging: flat timestamped events (kind, actor, detail operands) and
// causal spans (timed operations with parents and attributes), both against
// the simulation clock. The registration time-line of the paper's Figure 7
// is reconstructed from events; the handoff-disruption observatory is built
// on spans.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/ring"
	"mosquitonet/internal/sim"
)

// Event is one recorded occurrence.
type Event struct {
	At     sim.Time `json:"at_ns"`
	Kind   string   `json:"kind"`  // e.g. "reg.request.sent", "handoff.start"
	Actor  string   `json:"actor"` // host name
	Detail string   `json:"detail,omitempty"`
}

func (e Event) String() string {
	return fmt.Sprintf("%12v %-12s %-28s %s", e.At, e.Actor, e.Kind, e.Detail)
}

// Operands is what a typed event's detail is made of: up to two addresses, a
// few integers and up to two strings the caller already holds. They are
// stored as they are; the kind's Renderer — a package-level function of the
// layer that owns the kinds, beside its kind constants — turns them into
// Event.Detail only when the event is read (Events, Find, Last, Hook, the
// exports), so an event nobody reads costs no formatting.
type Operands struct {
	A, B ip.Addr
	N    uint64
	I, J int32
	S, T string
}

type Renderer func(kind string, o Operands) string

// record is a stored event; with a nil render, ops.S is its detail as
// Record pre-rendered it.
type record struct {
	at          sim.Time
	kind, actor string
	render      Renderer
	ops         Operands
}

func (r *record) event() Event {
	detail := r.ops.S
	if r.render != nil {
		detail = r.render(r.kind, r.ops)
	}
	return Event{At: r.at, Kind: r.kind, Actor: r.actor, Detail: detail}
}

// Tracer records events and spans against a simulation clock. A nil Tracer
// is valid and records nothing, so call sites never need nil checks.
//
// A Tracer is unbounded by default; SetCapacity bounds both stores with
// deterministic oldest-first eviction, which keeps an always-on tracer
// affordable on long runs.
type Tracer struct {
	loop *sim.Loop

	events     ring.Ring[record]
	spans      ring.Ring[*Span]
	nextSpanID uint64
	active     map[string]*Span // per actor, the top of its stack of open spans

	// Hook, if set, observes every event as it is recorded.
	Hook func(Event)
}

// tracerKey is the loop attachment (sim.Loop.Local) under which deep layers
// (stack drops, DHCP, tunnels, link devices) find the tracer without one
// being threaded through every constructor, mirroring metrics.Enable/For.
type tracerKey struct{}

// New creates a tracer on the given clock and associates it with the loop
// for For lookups. The first tracer created on a loop keeps the
// association; later tracers (e.g. a private tracer for one experiment
// fleet) still work but are not discoverable via For.
func New(loop *sim.Loop) *Tracer {
	t := &Tracer{loop: loop}
	if For(loop) == nil {
		loop.SetLocal(tracerKey{}, t)
	}
	return t
}

// For returns the tracer associated with the loop, or nil (a valid,
// no-op tracer) when tracing is not enabled for it.
func For(loop *sim.Loop) *Tracer {
	t, _ := loop.Local(tracerKey{}).(*Tracer)
	return t
}

// Release detaches the tracer from a loop that lives on; a loop that is
// simply dropped takes its tracer with it.
func Release(loop *sim.Loop) { loop.SetLocal(tracerKey{}, nil) }

// SetCapacity bounds the tracer to retain at most n events and n spans,
// evicting oldest-first (deterministically — eviction depends only on the
// record sequence). If more than n are already retained, the oldest are
// discarded now. n <= 0 restores unbounded growth.
func (t *Tracer) SetCapacity(n int) {
	if t == nil {
		return
	}
	t.events.SetLimit(n)
	t.spans.SetLimit(n)
}

// Dropped returns how many events the ring has evicted.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.events.Dropped()
}

// Record appends an event whose detail is text already, rendered now from
// format and args (fmt.Sprintf conventions); operands go through RecordOps.
func (t *Tracer) Record(actor, kind, format string, args ...any) {
	if t == nil {
		return
	}
	t.put(record{kind: kind, actor: actor, ops: Operands{S: fmt.Sprintf(format, args...)}})
}

// RecordOps appends a typed event. On a nil tracer it is a nil check; on a
// live one it formats and allocates nothing.
func (t *Tracer) RecordOps(actor, kind string, render Renderer, o Operands) {
	if t == nil {
		return
	}
	t.put(record{kind: kind, actor: actor, render: render, ops: o})
}

func (t *Tracer) put(r record) {
	r.at = t.loop.Now()
	*t.events.Next() = r
	if t.Hook != nil {
		t.Hook(r.event())
	}
}

// Events returns all retained events in order.
func (t *Tracer) Events() []Event { return t.Find("") }

// Find returns events whose kind has the given prefix.
func (t *Tracer) Find(kindPrefix string) []Event {
	if t == nil {
		return nil
	}
	var out []Event
	for _, r := range t.events.All() {
		if strings.HasPrefix(r.kind, kindPrefix) {
			out = append(out, r.event())
		}
	}
	return out
}

// Last returns the most recent event with the given kind prefix.
func (t *Tracer) Last(kindPrefix string) (Event, bool) {
	if t == nil {
		return Event{}, false
	}
	ev := t.events.All()
	for i := len(ev) - 1; i >= 0; i-- {
		if strings.HasPrefix(ev[i].kind, kindPrefix) {
			return ev[i].event(), true
		}
	}
	return Event{}, false
}

// Filter returns a new detached Tracer holding only the events whose kind
// matches one of the given prefixes (all events when none are given),
// preserving order. The result shares the parent's clock, so further
// Records work, but it starts with its own event slice — useful for
// exporting one protocol's timeline (e.g. "reg.", "addrswitch.") without
// disturbing the full trace.
func (t *Tracer) Filter(kindPrefixes ...string) *Tracer {
	if t == nil {
		return nil
	}
	out := &Tracer{loop: t.loop}
	for _, e := range t.events.All() {
		if len(kindPrefixes) == 0 || hasAnyPrefix(e.kind, kindPrefixes) {
			*out.events.Next() = e
		}
	}
	return out
}

// WriteJSONL writes the recorded events as one JSON object per line, the
// machine-readable export external tooling (e.g. a Figure 7 timeline
// plotter) consumes. Spans are exported separately (WriteSpansJSONL,
// WriteChromeTrace), so this stream's format is unchanged by span
// recording.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	for _, e := range t.Events() {
		b, err := json.Marshal(e)
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

// Reset discards recorded events and spans (between experiment
// iterations). Open spans are orphaned: their Done still runs but they are
// no longer retained. Eviction counters are preserved.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.events.Reset()
	t.spans.Reset()
	t.active = nil
}

// String renders the full trace, one event per line.
func (t *Tracer) String() string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	for _, e := range t.Events() {
		fmt.Fprintln(&b, e)
	}
	return b.String()
}
