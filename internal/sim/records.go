package sim

import "fmt"

// Records is one loop's free list of per-operation records of type T: a
// hop across a host's processing delay, a connectivity switch, a bring-up
// wait, an address resolution. An operation takes a record when it starts
// and puts it back when it ends, so the loop keeps as many records as were
// ever in use at the same moment, whichever of its hosts used them, and a
// host that is idle between operations keeps none. Like every attachment it
// is touched only from the goroutine running the loop and needs no lock.
//
// Take and Put count what they hand out and take back, so at quiesce
// taken = returned + the records still in use (Loop.RecordLedgers).
type Records[T any] struct {
	free            []*T
	taken, returned uint64
}

type recordsKey[T any] struct{}

// RecordsOf returns loop's free list of T records, attaching it on first
// use. T is a record type of the calling package, so each kind of record
// has its own list.
func RecordsOf[T any](l *Loop) *Records[T] {
	if r, ok := l.Local(recordsKey[T]{}).(*Records[T]); ok {
		return r
	}
	r := new(Records[T])
	l.SetLocal(recordsKey[T]{}, r)
	return r
}

// Take returns a free record, or nil when there is none and the caller
// makes one. Either way the record counts as taken.
func (r *Records[T]) Take() *T {
	r.taken++
	k := len(r.free) - 1
	if k < 0 {
		return nil
	}
	x := r.free[k]
	r.free = r.free[:k]
	return x
}

// Put returns a record taken from r, cleared of everything the operation
// pointed at. The caller does not touch it again.
func (r *Records[T]) Put(x *T) {
	r.returned++
	r.free = append(r.free, x)
}

// Free is the number of records on the list now.
func (r *Records[T]) Free() int { return len(r.free) }

// RecordLedger is one free list's count: records taken from it, records
// put back, and records on the list now.
type RecordLedger struct {
	Kind     string // the record type, e.g. "stack.hop"
	Taken    uint64
	Returned uint64
	Free     int
}

// InUse is the number of records taken and not yet put back.
func (l RecordLedger) InUse() int64 { return int64(l.Taken - l.Returned) }

func (r *Records[T]) ledger() RecordLedger {
	return RecordLedger{Kind: fmt.Sprintf("%T", *new(T)), Taken: r.taken, Returned: r.returned, Free: r.Free()}
}

// RecordLedgers returns the count of every record free list attached to
// the loop, in the order they were attached.
func (l *Loop) RecordLedgers() []RecordLedger {
	var out []RecordLedger
	for _, lc := range l.locals {
		if r, ok := lc.val.(interface{ ledger() RecordLedger }); ok {
			out = append(out, r.ledger())
		}
	}
	return out
}
