package sim

import "time"

// Lane is a bucketed timer lane for high-frequency periodic work — ARP
// retransmits, reassembly sweeps, TCP retransmission timeouts — where many
// hosts arm coarse timers on similar cadences. Fire instants are rounded up
// to the lane's granularity, and every callback landing on the same rounded
// instant shares one heap event, so a fleet of N hosts sweeping every few
// seconds costs one queue entry per tick instead of N.
//
// Rounding trades at most one granularity of punctuality for that sharing;
// callers pick a granularity small against their period. Determinism is
// unaffected: bucket membership and firing order depend only on virtual
// time and scheduling order, and callbacks within a bucket run in the order
// they were scheduled — exactly the (time, seq) order the main queue would
// have used for equal fire times.
//
// Buckets are reused: one that has fired, or whose last entry was stopped,
// goes to the lane's free list with its fns array and its bound fire method,
// so a timer that is alone in its bucket and re-armed on every ACK (a TCP
// retransmission timeout) allocates nothing. The free list never holds more
// buckets than were once pending at the same time.
type Lane struct {
	loop    *Loop
	gran    Time
	buckets map[Time]*laneBucket
	free    Records[laneBucket]
}

// laneBucket is one rounded instant's callbacks. gen counts its tenancies:
// it moves on when the bucket is recycled, which is what makes a LaneTimer
// kept from an earlier tenancy inert. A bucket is never recycled while it
// is firing — fire still walks fns — so Stop on a firing bucket only clears
// its slot.
type laneBucket struct {
	lane   *Lane
	at     Time
	fns    []func()
	live   int
	timer  Timer
	gen    uint64
	firing bool
	fireFn func() // b.fire, bound once
}

// NewLane returns a lane on loop with the given bucket granularity.
func NewLane(loop *Loop, granularity time.Duration) *Lane {
	if granularity <= 0 {
		panic("sim: lane granularity must be positive")
	}
	return &Lane{loop: loop, gran: Time(granularity), buckets: make(map[Time]*laneBucket)}
}

// Lane returns the loop's shared lane for the given granularity, creating
// it on first use. Sharing one lane per granularity lets unrelated hosts'
// periodic work coalesce into common buckets.
func (l *Loop) Lane(granularity time.Duration) *Lane {
	if ln, ok := l.lanes[granularity]; ok {
		return ln
	}
	if l.lanes == nil {
		l.lanes = make(map[time.Duration]*Lane)
	}
	ln := NewLane(l, granularity)
	l.lanes[granularity] = ln
	return ln
}

// Schedule runs fn after at least d of virtual time, rounded up to the
// lane's granularity. A negative delay is treated as zero.
func (ln *Lane) Schedule(d time.Duration, fn func()) LaneTimer {
	if fn == nil {
		panic("sim: lane Schedule with nil callback")
	}
	if d < 0 {
		d = 0
	}
	at := ln.loop.Now().Add(d)
	if rem := at % ln.gran; rem != 0 {
		at += ln.gran - rem
	}
	b := ln.buckets[at]
	if b == nil {
		if b = ln.free.Take(); b == nil {
			b = &laneBucket{lane: ln}
			b.fireFn = b.fire
		}
		b.at = at
		ln.buckets[at] = b
		b.timer = ln.loop.At(at, b.fireFn)
	}
	b.fns = append(b.fns, fn)
	b.live++
	return LaneTimer{b: b, idx: len(b.fns) - 1, gen: b.gen}
}

// recycle ends a bucket's tenancy: every handle to it goes stale and the
// bucket, emptied, waits on the free list for the next instant that needs
// one. Its slots are already nil (fired or stopped), so it pins no callback.
func (ln *Lane) recycle(b *laneBucket) {
	b.gen++
	b.fns = b.fns[:0]
	ln.free.Put(b)
}

// fire runs the bucket's surviving callbacks in scheduling order. The
// bucket leaves the lane's map first so callbacks rescheduling for the same
// instant open a fresh bucket rather than appending to a consumed one.
func (b *laneBucket) fire() {
	delete(b.lane.buckets, b.at)
	b.firing = true
	for i := 0; i < len(b.fns); i++ {
		fn := b.fns[i]
		b.fns[i] = nil
		if fn != nil {
			b.live--
			fn()
		}
	}
	b.firing = false
	b.lane.recycle(b)
}

// LaneTimer is a cancellation handle for one lane entry. The zero LaneTimer
// is valid and inert, and so is one whose bucket has fired or been released
// since: gen is the bucket's tenancy the entry belongs to.
type LaneTimer struct {
	b   *laneBucket
	idx int
	gen uint64
}

// Active reports whether the entry is still scheduled to fire.
func (t LaneTimer) Active() bool {
	return t.b != nil && t.b.gen == t.gen && t.b.fns[t.idx] != nil
}

// Stop cancels the entry, reporting whether the call prevented it from
// firing. Stopping the last live entry of a pending bucket releases the
// bucket's shared heap event as well; a bucket that is firing has already
// left the lane's map (the instant may have a fresh bucket by now) and
// recycles itself when fire returns.
func (t LaneTimer) Stop() bool {
	if !t.Active() {
		return false
	}
	b := t.b
	b.fns[t.idx] = nil
	b.live--
	if b.live == 0 && !b.firing {
		b.timer.Stop()
		delete(b.lane.buckets, b.at)
		b.lane.recycle(b)
	}
	return true
}
