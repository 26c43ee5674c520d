package sim

import (
	"fmt"
	"time"
)

// Queue is a monotone event queue beside the loop's heap: the instants
// pushed onto it never decrease, so it is sorted by (at, seq) as it grows
// and an event on it is never sifted. Two kinds of work have that shape by
// construction: a continuation after a fixed delay (now only moves
// forward, so now+d does too), and the deliveries of a medium that already
// keeps its arrivals in launch order.
//
// A queue entry takes its seq from the loop's one counter, exactly as At
// would have, and the loop always runs the earliest of the heap top and
// the queue heads by (at, seq): the order events run in is the order the
// heap alone would have given them. Within one queue, same-instant entries
// run in push order by construction.
//
// Entries cannot be cancelled — there is no Timer — and count in Len and
// QueueHighWater like heap events.
type Queue struct {
	loop  *Loop
	delay time.Duration // Schedule's delay; zero for a queue from NewQueue
	ring  []qentry      // power-of-two length, entries from head on
	head  int
	n     int
	last  Time // instant of the latest push
}

type qentry struct {
	qkey
	fn func()
}

// qkey is an entry's place in the loop's order.
type qkey struct {
	at  Time
	seq uint64
}

func (k qkey) before(o qkey) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	return k.seq < o.seq
}

// NewQueue returns a monotone queue on l for the caller to own: At pushes
// onto it, and each push must be at or after the one before.
func (l *Loop) NewQueue() *Queue { return &Queue{loop: l} }

// DelayQueue returns the loop's shared queue for work that runs a fixed
// delay d after it is scheduled, creating it on first use; a negative d is
// zero. Everything scheduled through one queue's Schedule is monotone
// because the clock is, so callers with the same delay share one queue and
// the loop has few to choose among.
func (l *Loop) DelayQueue(d time.Duration) *Queue {
	if d < 0 {
		d = 0
	}
	for _, q := range l.delays {
		if q.delay == d {
			return q
		}
	}
	q := l.NewQueue()
	q.delay = d
	l.delays = append(l.delays, q)
	return q
}

// Schedule runs fn after the queue's delay.
func (q *Queue) Schedule(fn func()) { q.At(q.loop.now.Add(q.delay), fn) }

// At runs fn at instant t. An instant before the queue's last push, or
// before the loop's clock, panics as Loop.At into the past does.
func (q *Queue) At(t Time, fn func()) {
	l := q.loop
	if fn == nil {
		panic("sim: queue At with nil callback")
	}
	if t < q.last || t < l.now {
		panic(fmt.Sprintf("sim: queue push out of order: now=%v last=%v at=%v", l.now, q.last, t))
	}
	if q.n == len(q.ring) {
		q.grow()
	}
	k := qkey{t, l.seq}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = qentry{k, fn}
	q.n++
	q.last = t
	if q.n == 1 {
		// The newest seq loses every tie, so only an earlier instant makes
		// this head the loop's first.
		l.ready = append(l.ready, q)
		l.heads = append(l.heads, k)
		if len(l.ready) == 1 || t < l.heads[l.first].at {
			l.first = len(l.ready) - 1
		}
	}
	l.seq++
	l.queued++
	if n := len(l.pq) + l.queued; n > l.maxQueue {
		l.maxQueue = n
	}
}

// grow doubles the ring, unwrapping its entries to start at index 0.
func (q *Queue) grow() {
	ring := make([]qentry, max(8, 2*len(q.ring)))
	for i := 0; i < q.n; i++ {
		ring[i] = q.ring[(q.head+i)&(len(q.ring)-1)]
	}
	q.ring, q.head = ring, 0
}

// firstBefore reports whether the earliest queue head runs before heap
// event ev.
func (l *Loop) firstBefore(ev *event) bool {
	return l.heads[l.first].before(qkey{ev.at, ev.seq})
}

// popFirst takes the earliest queue head, which l.first indexes, and finds
// the next first among the queues still holding work.
func (l *Loop) popFirst() qentry {
	i := l.first
	q := l.ready[i]
	e := q.ring[q.head]
	q.ring[q.head].fn = nil
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	l.queued--
	if q.n > 0 {
		l.heads[i] = q.ring[q.head].qkey
	} else {
		n := len(l.ready) - 1
		l.ready[i], l.heads[i] = l.ready[n], l.heads[n]
		l.ready[n] = nil
		l.ready, l.heads = l.ready[:n], l.heads[:n]
	}
	first := 0
	for j := 1; j < len(l.heads); j++ {
		if l.heads[j].before(l.heads[first]) {
			first = j
		}
	}
	l.first = first
	return e
}
