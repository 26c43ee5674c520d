package metrics

import (
	"encoding/json"
	"io"

	"mosquitonet/internal/sim"
)

// PacketEvent is one hop in a packet's lifecycle: the virtual time, the
// packet's trace ID, the node and instrumentation point that observed it,
// and an optional detail string (addresses, drop reason, ...).
type PacketEvent struct {
	At     sim.Time `json:"at_ns"`
	Pkt    uint64   `json:"pkt"`
	Node   string   `json:"node"`
	Point  string   `json:"point"`
	Detail string   `json:"detail,omitempty"`
}

// PacketLog is a bounded ring of packet-lifecycle events. Every packet
// injected into an instrumented stack is assigned a monotonic trace ID
// (sim.Loop.NextSerial), carried as metadata through IP headers, link
// frames, ARP queues, and tunnel encapsulation, so one packet's journey —
// link rx → route lookup → policy decision → VIF encap → HA decap →
// delivery or drop-with-reason — can be dumped as a single causal
// timeline. A nil *PacketLog is valid and records nothing.
type PacketLog struct {
	loop    *sim.Loop
	limit   int
	buf     []PacketEvent
	start   int // index of oldest event when the ring has wrapped
	full    bool
	dropped uint64
}

// DefaultPacketLogLimit bounds a packet log when no explicit limit is given.
const DefaultPacketLogLimit = 16384

// NewPacketLog creates a log keeping at most limit events (the oldest are
// evicted first). limit <= 0 selects DefaultPacketLogLimit.
func NewPacketLog(loop *sim.Loop, limit int) *PacketLog {
	if limit <= 0 {
		limit = DefaultPacketLogLimit
	}
	return &PacketLog{loop: loop, limit: limit}
}

// Record appends an event for packet pkt. Events for pkt 0 (an
// un-instrumented packet, e.g. a raw ARP frame) are ignored.
func (l *PacketLog) Record(pkt uint64, node, point, detail string) {
	if l == nil || pkt == 0 {
		return
	}
	ev := PacketEvent{At: l.loop.Now(), Pkt: pkt, Node: node, Point: point, Detail: detail}
	if len(l.buf) < l.limit {
		l.buf = append(l.buf, ev)
		return
	}
	l.buf[l.start] = ev
	l.start = (l.start + 1) % l.limit
	l.full = true
	l.dropped++
}

// Len returns the number of retained events.
func (l *PacketLog) Len() int {
	if l == nil {
		return 0
	}
	return len(l.buf)
}

// Evicted returns how many events were evicted from the ring.
func (l *PacketLog) Evicted() uint64 {
	if l == nil {
		return 0
	}
	return l.dropped
}

// Reset discards all retained events.
func (l *PacketLog) Reset() {
	if l == nil {
		return
	}
	l.buf = l.buf[:0]
	l.start = 0
	l.full = false
	l.dropped = 0
}

// Events returns retained events in recording order.
func (l *PacketLog) Events() []PacketEvent {
	if l == nil {
		return nil
	}
	out := make([]PacketEvent, 0, len(l.buf))
	out = append(out, l.buf[l.start:]...)
	if l.full {
		out = append(out, l.buf[:l.start]...)
	}
	return out
}

// Timeline returns the retained events for one packet, oldest first.
func (l *PacketLog) Timeline(pkt uint64) []PacketEvent {
	var out []PacketEvent
	for _, ev := range l.Events() {
		if ev.Pkt == pkt {
			out = append(out, ev)
		}
	}
	return out
}

// WriteJSONL writes retained events as one JSON object per line.
func (l *PacketLog) WriteJSONL(w io.Writer) error {
	for _, ev := range l.Events() {
		b, err := json.Marshal(ev)
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
