package trace

import (
	"fmt"
	"strings"
	"time"

	"mosquitonet/internal/sim"
)

// FlightDump is one captured snapshot: everything the bounded tracer
// retained at the moment a trigger fired, plus why it fired.
type FlightDump struct {
	At     sim.Time `json:"at_ns"`
	Reason string   `json:"reason"`
	Events []Event  `json:"events"`
	Spans  []Span   `json:"spans"`
}

// flightRule is one anomaly trigger: a kind prefix, optionally rate-gated
// (fire only when count matches land within window).
type flightRule struct {
	prefix string
	count  int           // 1 = fire on every match
	window time.Duration // sliding window for count > 1
	recent []sim.Time    // match times inside the window
}

// FlightRecorder is the always-on black box: it bounds a Tracer to a ring
// and dumps the ring's contents when an anomaly trigger fires — a
// registration retry exhaustion, a burst of route-less drops. Dumps are
// capped; triggers past the cap are counted, not stored. A nil
// FlightRecorder is valid and does nothing.
type FlightRecorder struct {
	t          *Tracer
	rules      []*flightRule
	dumps      []FlightDump
	maxDumps   int
	suppressed uint64

	prevHook     func(Event)
	prevSpanHook func(Span)
}

// NewFlightRecorder bounds t to capacity (when > 0) and starts observing
// it. maxDumps caps retained dumps (<= 0 means 4). The recorder chains any
// Hook/SpanHook already installed on the tracer, so it composes with other
// observers.
func NewFlightRecorder(t *Tracer, capacity, maxDumps int) *FlightRecorder {
	if t == nil {
		return nil
	}
	if capacity > 0 {
		t.SetCapacity(capacity)
	}
	if maxDumps <= 0 {
		maxDumps = 4
	}
	f := &FlightRecorder{t: t, maxDumps: maxDumps, prevHook: t.Hook, prevSpanHook: t.SpanHook}
	t.Hook = func(e Event) {
		if f.prevHook != nil {
			f.prevHook(e)
		}
		f.observe(e.Kind, e.At)
	}
	t.SpanHook = func(s Span) {
		if f.prevSpanHook != nil {
			f.prevSpanHook(s)
		}
		f.observe(s.Kind, s.End)
	}
	return f
}

// TriggerOn dumps whenever an event or closing span matches kindPrefix
// (e.g. "reg.timeout").
func (f *FlightRecorder) TriggerOn(kindPrefix string) {
	if f == nil {
		return
	}
	f.rules = append(f.rules, &flightRule{prefix: kindPrefix, count: 1})
}

// TriggerOnBurst dumps when count events or closing spans matching
// kindPrefix land within window of one another (e.g. 8 "drop.noroute"
// within 500ms). The window resets after firing.
func (f *FlightRecorder) TriggerOnBurst(kindPrefix string, count int, window time.Duration) {
	if f == nil {
		return
	}
	if count < 1 {
		count = 1
	}
	f.rules = append(f.rules, &flightRule{prefix: kindPrefix, count: count, window: window})
}

func (f *FlightRecorder) observe(kind string, at sim.Time) {
	for _, r := range f.rules {
		if !strings.HasPrefix(kind, r.prefix) {
			continue
		}
		if r.count <= 1 {
			f.dump(at, "event: "+kind)
			continue
		}
		// Slide the window, then append this match.
		keep := r.recent[:0]
		for _, ts := range r.recent {
			if at.Sub(ts) <= r.window {
				keep = append(keep, ts)
			}
		}
		r.recent = append(keep, at)
		if len(r.recent) >= r.count {
			f.dump(at, fmt.Sprintf("burst: %d×%s within %v", len(r.recent), r.prefix, r.window))
			r.recent = r.recent[:0]
		}
	}
}

func (f *FlightRecorder) dump(at sim.Time, reason string) {
	if len(f.dumps) >= f.maxDumps {
		f.suppressed++
		return
	}
	f.dumps = append(f.dumps, FlightDump{
		At:     at,
		Reason: reason,
		Events: f.t.Events(),
		Spans:  f.t.Spans(),
	})
}

// Dumps returns the captured dumps in trigger order.
func (f *FlightRecorder) Dumps() []FlightDump {
	if f == nil {
		return nil
	}
	return append([]FlightDump(nil), f.dumps...)
}

// Suppressed returns how many triggers fired after the dump cap was
// reached.
func (f *FlightRecorder) Suppressed() uint64 {
	if f == nil {
		return 0
	}
	return f.suppressed
}
