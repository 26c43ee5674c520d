// Package ring is the bounded history the telemetry stores keep: the
// tracer's events and spans and the packet log's hops. A Ring grows by
// append until its limit and then overwrites its oldest slot, so eviction
// depends only on the sequence of appends — never on timing — and a
// bounded store costs its limit in slots however long the run.
package ring

// Ring holds the most recent values appended to it, oldest first. The zero
// Ring is empty and unbounded. A Ring is not safe for concurrent use: like
// the simulation that fills it, it belongs to one goroutine at a time.
type Ring[T any] struct {
	buf     []T
	start   int // the oldest slot once the ring has wrapped, else 0
	limit   int // 0 = unbounded
	dropped uint64
}

// Next returns the slot for one more value: a new zero slot while the ring
// is under its limit, otherwise the oldest slot, whose value is evicted and
// counted as dropped. The caller overwrites the slot.
func (r *Ring[T]) Next() *T {
	if r.limit == 0 || len(r.buf) < r.limit {
		var zero T
		r.buf = append(r.buf, zero)
		return &r.buf[len(r.buf)-1]
	}
	p := &r.buf[r.start]
	if r.start++; r.start == len(r.buf) {
		r.start = 0
	}
	r.dropped++
	return p
}

// All returns the retained values oldest-first: the ring's own array until
// it wraps, a copy after. The result is valid until the ring next changes.
func (r *Ring[T]) All() []T {
	if r.start == 0 {
		return r.buf
	}
	out := make([]T, 0, len(r.buf))
	return append(append(out, r.buf[r.start:]...), r.buf[:r.start]...)
}

// Len returns the number of retained values.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Dropped returns how many values have been evicted, by Next or SetLimit.
func (r *Ring[T]) Dropped() uint64 { return r.dropped }

// SetLimit bounds the ring to n values, evicting the oldest now if more are
// retained; n <= 0 makes it unbounded.
func (r *Ring[T]) SetLimit(n int) {
	all := r.All()
	if n <= 0 {
		n = 0
	} else if excess := len(all) - n; excess > 0 {
		r.dropped += uint64(excess)
		all = all[excess:]
	}
	r.buf = append([]T(nil), all...)
	r.start, r.limit = 0, n
}

// Reset discards the retained values, keeping the limit and the count of
// values dropped so far.
func (r *Ring[T]) Reset() {
	r.buf = r.buf[:0]
	r.start = 0
}
