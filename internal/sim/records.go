package sim

import "fmt"

// Records is a free list of recycled objects of type T, and the only one
// in the simulator: per-operation records (a hop across a host's processing
// delay, a connectivity switch, a bring-up wait, an address resolution, a
// frame in the air), the loop's event records and lane buckets, pooled
// packets and wire buffers, trunk frames and send-buffer blocks. Whoever
// recycles takes an object when it starts using one and puts it back when
// it is done, so the list keeps as many objects as were ever in use at the
// same moment, and an owner that is idle between uses keeps none. A list is
// touched only from the goroutine running its loop and needs no lock.
//
// Max caps what the list keeps: a Put beyond it counts as returned and
// leaves the object to the garbage collector, so a one-way flow cannot grow
// a list without bound. The zero Max keeps every object put back.
//
// Take and Put count what they hand out and take back, so taken = returned
// + the objects still in use. The lists RecordsOf attaches to a loop report
// that count through Loop.RecordLedgers.
type Records[T any] struct {
	free            []*T
	Max             int
	taken, returned uint64
}

type recordsKey[T any] struct{}

// RecordsOf returns loop's free list of T records, attaching it on first
// use. T is a record type of the calling package, so each kind of record
// has its own list. The list is uncapped.
func RecordsOf[T any](l *Loop) *Records[T] {
	if r, ok := l.Local(recordsKey[T]{}).(*Records[T]); ok {
		return r
	}
	r := new(Records[T])
	l.SetLocal(recordsKey[T]{}, r)
	return r
}

// Take returns a free record, or nil when there is none and the caller
// makes one. Either way the record counts as taken. The list forgets the
// record it hands out.
func (r *Records[T]) Take() *T {
	r.taken++
	k := len(r.free) - 1
	if k < 0 {
		return nil
	}
	x := r.free[k]
	r.free[k] = nil
	r.free = r.free[:k]
	return x
}

// Put returns a record taken from a list of its kind (a wire buffer that
// crossed a trunk comes back to the far loop's), cleared of everything the
// operation pointed at. The caller does not touch it again. The list keeps it unless
// it already holds Max.
func (r *Records[T]) Put(x *T) {
	r.returned++
	if r.Max == 0 || len(r.free) < r.Max {
		r.free = append(r.free, x)
	}
}

// Free is the number of records on the list now.
func (r *Records[T]) Free() int { return len(r.free) }

// RecordLedger is one free list's count: records taken from it, records
// put back, and records on the list now. The loop's packet pool (ip.Pool)
// and wire-buffer lists (bufpool.Lists) count their packets and buffers in
// the same form.
type RecordLedger struct {
	Kind     string // the record type, e.g. "stack.hop"
	Taken    uint64
	Returned uint64
	Free     int
}

// InUse is the number of records taken and not yet put back.
func (l RecordLedger) InUse() int64 { return int64(l.Taken - l.Returned) }

// Add returns l with m's counts added to it, under l's kind: the count of
// two lists as one.
func (l RecordLedger) Add(m RecordLedger) RecordLedger {
	l.Taken, l.Returned, l.Free = l.Taken+m.Taken, l.Returned+m.Returned, l.Free+m.Free
	return l
}

// Ledger is r's count.
func (r *Records[T]) Ledger() RecordLedger {
	return RecordLedger{Kind: fmt.Sprintf("%T", *new(T)), Taken: r.taken, Returned: r.returned, Free: r.Free()}
}

// RecordLedgers returns the count of every free list attached to the loop
// (every attachment with a Ledger method), in the order they were attached.
func (l *Loop) RecordLedgers() []RecordLedger {
	var out []RecordLedger
	for _, lc := range l.locals {
		if r, ok := lc.val.(interface{ Ledger() RecordLedger }); ok {
			out = append(out, r.Ledger())
		}
	}
	return out
}
