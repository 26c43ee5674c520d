package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// The reference queue: the container/heap implementation the loop used
// before its typed heap and its monotone queues, kept here so the two can
// be driven side by side. It shares no code with sim.go or queue.go — no
// record pooling, no generations, one heap for every event; a stopped or
// fired event is marked by idx -1.

type refEvent struct {
	at  Time
	seq uint64
	fn  func()
	idx int
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *refHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.idx = len(*h)
	*h = append(*h, ev)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.idx = -1
	*h = old[:n-1]
	return ev
}

type refLoop struct {
	now      Time
	seq      uint64
	pq       refHeap
	executed uint64
	maxQueue int
}

func (l *refLoop) at(t Time, fn func()) *refEvent {
	ev := &refEvent{at: t, seq: l.seq, fn: fn}
	l.seq++
	heap.Push(&l.pq, ev)
	if len(l.pq) > l.maxQueue {
		l.maxQueue = len(l.pq)
	}
	return ev
}

func (l *refLoop) stop(ev *refEvent) bool {
	if ev.idx < 0 {
		return false
	}
	heap.Remove(&l.pq, ev.idx)
	return true
}

func (l *refLoop) step() bool {
	if len(l.pq) == 0 {
		return false
	}
	ev := heap.Pop(&l.pq).(*refEvent)
	l.now = ev.at
	l.executed++
	ev.fn()
	return true
}

func (l *refLoop) runUntil(t Time) {
	for len(l.pq) > 0 && l.pq[0].at <= t {
		l.step()
	}
	l.now = t
}

// oracleDelays are the fixed delays of the monotone queues the script
// schedules through; the zero delay runs beside same-instant timers.
var oracleDelays = []time.Duration{0, 3 * time.Millisecond, 7 * time.Millisecond}

// oracleQueue is what the script needs of either loop; timers are named by
// the order they were created in, so one script addresses both.
type oracleQueue interface {
	now() Time
	at(t Time, fn func())      // creates timer number timers()
	delayed(i int, fn func())  // runs fn oracleDelays[i] from now; no timer
	inOrder(t Time, fn func()) // runs fn at t, no earlier than the last t; no timer
	timers() int
	stop(k int) bool
	active(k int) bool
	timerAt(k int) Time
	step() bool
	runUntil(t Time)
	len() int
	highWater() int
	executed() uint64
}

type realQueue struct {
	l  *Loop
	ts []Timer
	mq *Queue // the inOrder queue
}

func (q *realQueue) now() Time            { return q.l.Now() }
func (q *realQueue) at(t Time, fn func()) { q.ts = append(q.ts, q.l.At(t, fn)) }
func (q *realQueue) timers() int          { return len(q.ts) }
func (q *realQueue) stop(k int) bool      { return q.ts[k].Stop() }
func (q *realQueue) active(k int) bool    { return q.ts[k].Active() }
func (q *realQueue) timerAt(k int) Time   { return q.ts[k].At() }
func (q *realQueue) step() bool           { return q.l.Step() }
func (q *realQueue) runUntil(t Time)      { q.l.RunUntil(t) }
func (q *realQueue) len() int             { return q.l.Len() }
func (q *realQueue) highWater() int       { return q.l.QueueHighWater() }
func (q *realQueue) executed() uint64     { return q.l.Executed() }

func (q *realQueue) delayed(i int, fn func()) {
	q.l.DelayQueue(oracleDelays[i]).Schedule(fn)
}

func (q *realQueue) inOrder(t Time, fn func()) {
	if q.mq == nil {
		q.mq = q.l.NewQueue()
	}
	q.mq.At(t, fn)
}

type refQueue struct {
	l  refLoop
	ts []*refEvent
}

func (q *refQueue) now() Time                 { return q.l.now }
func (q *refQueue) at(t Time, fn func())      { q.ts = append(q.ts, q.l.at(t, fn)) }
func (q *refQueue) inOrder(t Time, fn func()) { q.l.at(t, fn) }
func (q *refQueue) timers() int               { return len(q.ts) }
func (q *refQueue) stop(k int) bool           { return q.l.stop(q.ts[k]) }
func (q *refQueue) active(k int) bool         { return q.ts[k].idx >= 0 }
func (q *refQueue) step() bool                { return q.l.step() }
func (q *refQueue) runUntil(t Time)           { q.l.runUntil(t) }
func (q *refQueue) len() int                  { return len(q.l.pq) }
func (q *refQueue) highWater() int            { return q.l.maxQueue }
func (q *refQueue) executed() uint64          { return q.l.executed }

func (q *refQueue) delayed(i int, fn func()) {
	q.l.at(q.l.now.Add(oracleDelays[i]), fn)
}

func (q *refQueue) timerAt(k int) Time {
	if q.ts[k].idx < 0 {
		return 0
	}
	return q.ts[k].at
}

// runOracleScript drives q with the seeded script and returns everything it
// observed, one line per observation. The script draws from its own
// generator, callbacks included, so two queues that behave alike consume it
// alike; the first divergence shows as the first differing line.
func runOracleScript(q oracleQueue, seed int64, ops int) []string {
	rng := rand.New(rand.NewSource(seed))
	var log []string
	note := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	// Delays come in whole milliseconds from a small range: most instants
	// hold several events, so the sequence tie-break decides the order.
	delay := func() time.Duration { return time.Duration(rng.Intn(12)) * time.Millisecond }
	anyTimer := func() int { return rng.Intn(q.timers()) } // live, fired, stopped or stale alike
	probe := func(k int) { note("timer %d active=%v at=%v", k, q.active(k), q.timerAt(k)) }

	var schedule func(d time.Duration)
	var enqueue func(i int)
	var entries int    // queue entries pushed so far, named like timers
	var inOrderAt Time // the instant of the latest inOrder push
	// queued makes a queue entry's callback: it notes the firing and may
	// push another entry, or schedule or stop a timer.
	queued := func(k int) func() {
		return func() {
			note("fire q%d at %v len=%d", k, q.now(), q.len())
			switch rng.Intn(6) {
			case 0:
				enqueue(rng.Intn(len(oracleDelays) + 1))
			case 1:
				schedule(delay())
			case 2:
				j := anyTimer()
				note("stop %d from q%d = %v", j, k, q.stop(j))
			}
		}
	}
	// enqueue pushes one entry onto delay queue i, or, for i ==
	// len(oracleDelays), onto the inOrder queue a whole delay past the
	// later of now and its last push.
	enqueue = func(i int) {
		k := entries
		entries++
		if i < len(oracleDelays) {
			q.delayed(i, queued(k))
			note("delayed q%d +%v", k, oracleDelays[i])
			return
		}
		t := max(inOrderAt, q.now()).Add(delay())
		inOrderAt = t
		q.inOrder(t, queued(k))
		note("inorder q%d at %v", k, t)
	}
	schedule = func(d time.Duration) {
		k := q.timers()
		q.at(q.now().Add(d), func() {
			note("fire %d at %v len=%d", k, q.now(), q.len())
			probe(k) // a firing timer is already inert
			switch rng.Intn(9) {
			case 0, 1: // reschedule from the callback, zero delay included
				schedule(delay())
			case 2:
				schedule(0)
				schedule(delay())
			case 3, 4: // cancel someone else, or itself, from the callback
				j := anyTimer()
				note("stop %d from %d = %v", j, k, q.stop(j))
			case 5: // continue through a queue
				enqueue(rng.Intn(len(oracleDelays) + 1))
			}
		})
		note("sched %d +%v", k, d)
		probe(k)
	}

	schedule(delay()) // anyTimer needs one to pick
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(26); {
		case r < 8:
			schedule(delay())
		case r < 10: // a burst at one instant
			d := delay()
			for n := rng.Intn(6); n >= 0; n-- {
				schedule(d)
			}
		case r < 14:
			k := anyTimer()
			note("stop %d = %v", k, q.stop(k))
			note("stop %d again = %v", k, q.stop(k))
			probe(k)
		case r < 17:
			note("step = %v", q.step())
		case r < 19:
			q.runUntil(q.now().Add(delay()))
		case r < 20:
			probe(anyTimer())
		case r < 23:
			enqueue(rng.Intn(len(oracleDelays) + 1))
		case r < 25: // a burst at one instant through one delay queue
			i := rng.Intn(len(oracleDelays))
			for n := rng.Intn(6); n >= 0; n-- {
				enqueue(i)
			}
		default: // a burst at one explicit instant
			enqueue(len(oracleDelays))
			for n := rng.Intn(5); n >= 0; n-- {
				k := entries
				entries++
				q.inOrder(inOrderAt, queued(k))
				note("inorder q%d at %v", k, inOrderAt)
			}
		}
		note("now=%v len=%d high=%d executed=%d", q.now(), q.len(), q.highWater(), q.executed())
	}
	q.runUntil(q.now().Add(time.Second))
	note("drained now=%v len=%d high=%d executed=%d", q.now(), q.len(), q.highWater(), q.executed())
	return log
}

// TestHeapMatchesContainerHeap runs one script against the loop and against
// the container/heap reference and compares every observation: firing order
// and times, Stop results (stale and double stops included), Timer.Active
// and Timer.At, Len, QueueHighWater and Executed. The loop takes some of the
// script's work through its monotone queues — three fixed-delay queues and
// one fed explicit instants, bursts at one instant included — where the
// reference heaps everything under the same (at, seq).
//
// Hand mutations of sim.go and queue.go this fails on: dropping any one of
// the four idx stores (the displaced record's in siftUp or siftDown, the
// landing record's in either), sifting only down or only up in remove,
// comparing times alone in before (`<` or `<=`: ties fire out of scheduling
// order), never looking at the right child in siftDown, letting the
// high-water mark lag a push, comparing a queue head with the heap top by
// time alone (`<` or `<=`), not refreshing the earliest head after a queue
// pop (keeping l.first, or the popped queue's old key), and Len or
// QueueHighWater ignoring queued entries.
func TestHeapMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		got := runOracleScript(&realQueue{l: New(seed)}, seed, 3000)
		want := runOracleScript(&refQueue{}, seed, 3000)
		for i := 0; i < len(got) || i < len(want); i++ {
			g, w := "<end of log>", "<end of log>"
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			if g != w {
				lo := i - 5
				if lo < 0 {
					lo = 0
				}
				t.Fatalf("seed %d: observation %d differs\n loop: %s\n  ref: %s\nshared history:\n  %s", seed, i, g, w, strings.Join(want[lo:i], "\n  "))
			}
		}
		if len(got) < 3000 {
			t.Fatalf("seed %d: script made only %d observations", seed, len(got))
		}
	}
}
