// Package sim provides a deterministic discrete-event simulation loop.
//
// All protocol machinery in this repository runs in virtual time: work is
// scheduled as events ordered by (time, scheduling sequence), and the loop
// executes events one at a time. Timers wait in a heap; work whose instants
// arrive in order waits in monotone queues beside it (queue.go), and the
// loop runs the earliest of all of them. Two runs with the same seed and
// the same schedule of external stimuli produce byte-identical results,
// which is what makes the paper's millisecond-scale packet-loss experiments
// reproducible rather than flaky.
//
// Event records are pooled: firing or cancelling an event returns its
// record to a per-loop free list, so a steady-state simulation schedules
// millions of timers without allocating. Timer handles stay safe across
// recycling because each handle carries the generation of the event it was
// issued for; a stale handle (its event already fired, was stopped, or was
// recycled into a different timer) is simply inert.
//
// The loop is not safe for concurrent use; a simulation is single-threaded
// by design. Code under test interacts with it only from event callbacks or
// from the goroutine driving Run/RunFor.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is an instant in virtual time, expressed as the elapsed duration
// since the start of the simulation.
type Time time.Duration

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and an earlier instant u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts t to the duration elapsed since the simulation start.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// String formats the instant like a duration, e.g. "1.25s".
func (t Time) String() string { return time.Duration(t).String() }

// event is a scheduled callback. Records are recycled through the loop's
// free list; gen counts recyclings so stale Timer handles can detect that
// their event is gone.
type event struct {
	at   Time
	seq  uint64
	fn   func()
	idx  int // heap index, -1 while on the free list
	gen  uint64
	loop *Loop
}

// Timer is a handle to a scheduled event, allowing cancellation. The zero
// Timer is valid and inert: Stop reports false and Active reports false.
// Timer is a small value; copy it freely. A handle outlives its event
// harmlessly — once the event fires or is stopped, the handle goes inert
// even if the loop recycles the event record for a new timer.
type Timer struct {
	ev  *event
	gen uint64
}

// Active reports whether the timer is still scheduled to fire.
func (t Timer) Active() bool { return t.ev != nil && t.ev.gen == t.gen }

// Stop cancels the timer, removing its event from the queue immediately so
// cancelled work never lingers in Len or QueueHighWater. It reports whether
// the call prevented the event from firing; it returns false if the event
// already ran or was stopped.
func (t Timer) Stop() bool {
	ev := t.ev
	if ev == nil || ev.gen != t.gen {
		return false
	}
	l := ev.loop
	l.remove(ev.idx)
	l.recycle(ev)
	return true
}

// At returns the virtual time the timer is scheduled to fire, or 0 if the
// timer is no longer active.
func (t Timer) At() Time {
	if !t.Active() {
		return 0
	}
	return t.ev.at
}

// before is the queue order: time, then scheduling sequence. seq is unique
// per loop, so the order is strict and total and the pop sequence does not
// depend on the heap's shape.
func (ev *event) before(o *event) bool {
	if ev.at != o.at {
		return ev.at < o.at
	}
	return ev.seq < o.seq
}

// The timer heap is a binary min-heap laid directly on l.pq. Sifting moves
// a hole instead of swapping: each displaced record is written (and its idx
// kept) once, and the moving record lands once at the end.

// push adds ev to the queue.
func (l *Loop) push(ev *event) {
	l.pq = append(l.pq, ev)
	l.siftUp(len(l.pq)-1, ev)
}

// popMin removes and returns the earliest event; the queue must not be empty.
func (l *Loop) popMin() *event {
	top := l.pq[0]
	l.remove(0)
	return top
}

// remove takes the event at heap index i out of the queue: the last record
// fills the hole and sifts whichever way restores the order.
func (l *Loop) remove(i int) {
	n := len(l.pq) - 1
	last := l.pq[n]
	l.pq[n] = nil
	l.pq = l.pq[:n]
	if i == n {
		return
	}
	if i > 0 && last.before(l.pq[(i-1)/2]) {
		l.siftUp(i, last)
	} else {
		l.siftDown(i, last)
	}
}

// siftUp places ev at or above the hole at index i.
func (l *Loop) siftUp(i int, ev *event) {
	pq := l.pq
	for i > 0 {
		p := (i - 1) / 2
		parent := pq[p]
		if !ev.before(parent) {
			break
		}
		pq[i] = parent
		parent.idx = i
		i = p
	}
	pq[i] = ev
	ev.idx = i
}

// siftDown places ev at or below the hole at index i.
func (l *Loop) siftDown(i int, ev *event) {
	pq := l.pq
	n := len(pq)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		child := pq[c]
		if r := c + 1; r < n && pq[r].before(child) {
			c, child = r, pq[r]
		}
		if !child.before(ev) {
			break
		}
		pq[i] = child
		child.idx = i
		i = c
	}
	pq[i] = ev
	ev.idx = i
}

// Loop is a discrete-event simulation loop with a virtual clock and a
// seeded random number generator.
type Loop struct {
	now      Time
	seq      uint64
	pq       []*event // binary min-heap on (at, seq)
	free     Records[event]
	ready    []*Queue // the monotone queues holding entries
	heads    []qkey   // heads[i] is ready[i]'s head entry's key
	first    int      // index in ready of the earliest head, if any
	queued   int      // entries across ready
	delays   []*Queue // DelayQueue's shared queues
	rng      *rand.Rand
	executed uint64
	serial   uint64
	maxQueue int
	lanes    map[time.Duration]*Lane
	locals   []local
}

// local is one attachment: a value some layer hangs on the loop under a
// key only that layer can name (an unexported type of its own).
type local struct{ key, val any }

// New returns a loop whose clock reads zero and whose random source is
// seeded with seed.
func New(seed int64) *Loop {
	return &Loop{rng: rand.New(rand.NewSource(seed)), locals: make([]local, 0, localsCap)}
}

// localsCap is room for every layer's attachments (a dozen on a fleet's
// loop), so that one a layer attaches lazily while the loop runs, such as
// a record list at the first operation of its kind, does not grow the list.
const localsCap = 16

// Now returns the current virtual time.
func (l *Loop) Now() Time { return l.now }

// Rand returns the loop's deterministic random source.
func (l *Loop) Rand() *rand.Rand { return l.rng }

// Len returns the number of live scheduled events, heap and monotone
// queues together. Stopped timers are removed from the heap eagerly, so
// cancelled work is never counted.
func (l *Loop) Len() int { return len(l.pq) + l.queued }

// Executed returns the number of events run so far.
func (l *Loop) Executed() uint64 { return l.executed }

// QueueHighWater returns the largest number of live scheduled events
// observed so far.
func (l *Loop) QueueHighWater() int { return l.maxQueue }

// NextSerial returns the next value of a monotonic per-loop counter,
// starting at 1. It is the allocator for packet trace IDs: deterministic,
// never zero, and shared by every layer of one simulation.
func (l *Loop) NextSerial() uint64 {
	l.serial++
	return l.serial
}

// Local returns what SetLocal last stored under key, or nil. It is how a
// layer finds its per-simulation state (the metrics registry, the tracer,
// the host slabs, the packet and wire-buffer free lists) through the loop
// every constructor is already handed, so that state lives and dies with
// the loop instead of in a process-wide table. There is no lock: an
// attachment is made while the simulation is built, or lazily by the
// goroutine running the loop, and touched only from that goroutine.
func (l *Loop) Local(key any) any {
	for i := range l.locals {
		if l.locals[i].key == key {
			return l.locals[i].val
		}
	}
	return nil
}

// SetLocal stores v under key, replacing what was there; storing nil
// detaches.
func (l *Loop) SetLocal(key, v any) {
	for i := range l.locals {
		if l.locals[i].key == key {
			l.locals[i].val = v
			return
		}
	}
	l.locals = append(l.locals, local{key, v})
}

// alloc takes an event record from the free list, or makes a new one.
func (l *Loop) alloc() *event {
	if ev := l.free.Take(); ev != nil {
		return ev
	}
	return &event{loop: l}
}

// recycle returns an event record to the free list. Bumping gen invalidates
// every Timer handle issued for the record's previous life.
func (l *Loop) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.idx = -1
	l.free.Put(ev)
}

// Schedule runs fn after delay d of virtual time. A negative delay is
// treated as zero: the event runs at the current instant, after any events
// already scheduled for it.
func (l *Loop) Schedule(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return l.At(l.now.Add(d), fn)
}

// At runs fn at instant t. Scheduling in the past is an error in the
// simulation's logic, so it panics rather than silently reordering history.
func (l *Loop) At(t Time, fn func()) Timer {
	if fn == nil {
		panic("sim: At with nil callback")
	}
	if t < l.now {
		panic(fmt.Sprintf("sim: scheduling into the past: now=%v at=%v", l.now, t))
	}
	ev := l.alloc()
	ev.at, ev.seq, ev.fn = t, l.seq, fn
	l.seq++
	l.push(ev)
	if n := len(l.pq) + l.queued; n > l.maxQueue {
		l.maxQueue = n
	}
	return Timer{ev: ev, gen: ev.gen}
}

// Step executes the single next event, advancing the clock to its time.
// It reports whether an event was executed (false when nothing is pending).
func (l *Loop) Step() bool {
	if len(l.ready) > 0 && (len(l.pq) == 0 || l.firstBefore(l.pq[0])) {
		e := l.popFirst()
		l.now = e.at
		l.executed++
		e.fn()
		return true
	}
	if len(l.pq) == 0 {
		return false
	}
	ev := l.popMin()
	l.now = ev.at
	fn := ev.fn
	// Recycle before invoking so the callback can schedule into the
	// record it just vacated; the gen bump has already gone inert on
	// every handle to this firing.
	l.recycle(ev)
	l.executed++
	fn()
	return true
}

// Run executes events until nothing is pending.
func (l *Loop) Run() {
	for l.Step() {
	}
}

// RunUntil executes every event scheduled at or before t, then advances the
// clock to exactly t. It is the usual way to drive an experiment for a
// fixed window of virtual time.
func (l *Loop) RunUntil(t Time) {
	if t < l.now {
		panic(fmt.Sprintf("sim: RunUntil into the past: now=%v t=%v", l.now, t))
	}
	for {
		next, ok := l.peek()
		if !ok || next > t {
			break
		}
		l.Step()
	}
	l.now = t
}

// RunFor advances the simulation by d of virtual time, executing all events
// that fall within the window.
func (l *Loop) RunFor(d time.Duration) { l.RunUntil(l.now.Add(d)) }

// AdvanceTo moves the clock to t without executing anything. It is the
// barrier-skip fast path for shard-parallel execution: a shard with no
// event inside an epoch has nothing to run, so the coordinator advances
// its clock directly instead of paying a RunUntil call. Skipping is only
// legal when no pending event falls strictly before t — an event at
// exactly t may stay pending, matching RunUntil's handling of work
// scheduled at the final barrier instant — so AdvanceTo panics if the
// queue holds earlier work rather than silently skipping it.
func (l *Loop) AdvanceTo(t Time) {
	if t < l.now {
		panic(fmt.Sprintf("sim: AdvanceTo into the past: now=%v t=%v", l.now, t))
	}
	if next, ok := l.peek(); ok && next < t {
		panic(fmt.Sprintf("sim: AdvanceTo(%v) would skip an event pending at %v", t, next))
	}
	l.now = t
}

// peek returns the time of the next live event: the earlier of the heap
// top and the earliest queue head. Cancellation removes events eagerly, so
// the heap top is always live.
func (l *Loop) peek() (Time, bool) {
	if len(l.ready) > 0 {
		at := l.heads[l.first].at
		if len(l.pq) > 0 && l.pq[0].at < at {
			return l.pq[0].at, true
		}
		return at, true
	}
	if len(l.pq) == 0 {
		return 0, false
	}
	return l.pq[0].at, true
}

// NextEventAt returns the time of the next scheduled live event, if any.
func (l *Loop) NextEventAt() (Time, bool) { return l.peek() }

// Jitter returns a uniformly distributed duration in [d-spread, d+spread],
// clamped at zero, drawn from the loop's deterministic random source. It is
// the standard way device models add calibrated variance.
func (l *Loop) Jitter(d, spread time.Duration) time.Duration {
	if spread <= 0 {
		return d
	}
	off := time.Duration(l.rng.Int63n(int64(2*spread+1))) - spread
	v := d + off
	if v < 0 {
		v = 0
	}
	return v
}
