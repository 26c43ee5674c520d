package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one interval of the benchmark's own trace: wall-clock
// nanoseconds since the recorder started, the span that contains it
// (0 for a root) and the run it belongs to. Count is set on aggregated
// spans, which sum many short calls (see lap).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Run     string `json:"run"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Count   int    `json:"count,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// recorder keeps the traced run's spans in memory; they are written out
// once, when the benchmark ends. A nil *recorder is the tracing-off state:
// every method is a no-op that reads no clock, so untraced runs pay
// nothing for the instrumentation points.
type recorder struct {
	run   string
	t0    time.Time
	spans []span
	open  []int // indices into spans of the open spans, innermost last
	laps  []lapTotal
}

// lapTotal accumulates one aggregated child of the innermost open span.
type lapTotal struct {
	owner int // index of the span it aggregates under
	name  string
	total time.Duration
	count int
}

func newRecorder(run string) *recorder { return &recorder{run: run, t0: now()} }

func (r *recorder) begin(name string) {
	if r == nil {
		return
	}
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Run: r.run, Name: name, StartNS: int64(since(r.t0))})
	r.open = append(r.open, len(r.spans)-1)
}

// end closes the innermost open span. Its aggregated children are emitted
// laid end to end from its start: they have a total and a call count, not
// a position in time.
func (r *recorder) end() {
	if r == nil {
		return
	}
	idx := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[idx].EndNS = int64(since(r.t0))
	at := r.spans[idx].StartNS
	kept := r.laps[:0]
	for _, l := range r.laps {
		if l.owner != idx {
			kept = append(kept, l)
			continue
		}
		r.spans = append(r.spans, span{
			ID: len(r.spans) + 1, Parent: r.spans[idx].ID, Run: r.run, Name: l.name,
			StartNS: at, EndNS: at + int64(l.total), Count: l.count,
		})
		at += int64(l.total)
	}
	r.laps = kept
}

// tick reads the clock for a following lap; zero when tracing is off.
func (r *recorder) tick() time.Time {
	if r == nil {
		return time.Time{}
	}
	return now()
}

// lap adds the time since t0 to the aggregated child name of the innermost
// open span. It is how thousands of constructor calls during set-up become
// one span per layer.
func (r *recorder) lap(name string, t0 time.Time) {
	if r == nil {
		return
	}
	d := since(t0)
	owner := r.open[len(r.open)-1]
	for i := range r.laps {
		if r.laps[i].owner == owner && r.laps[i].name == name {
			r.laps[i].total += d
			r.laps[i].count++
			return
		}
	}
	r.laps = append(r.laps, lapTotal{owner: owner, name: name, total: d, count: 1})
}

// durations returns the duration of every span called name, in order.
func durations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(spans []span, s span) time.Duration {
	d := s.dur()
	for _, c := range spans {
		if c.Run == s.Run && c.Parent == s.ID {
			d -= c.dur()
		}
	}
	return d
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
