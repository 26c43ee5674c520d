package sim

import (
	"slices"
	"testing"
	"time"
)

func TestLaneRoundsUpToGranularity(t *testing.T) {
	l := New(1)
	var at Time
	l.Lane(10*time.Millisecond).Schedule(7*time.Millisecond, func() { at = l.Now() })
	l.Run()
	if at != Time(10*time.Millisecond) {
		t.Fatalf("fired at %v, want 10ms", at)
	}
}

func TestLaneAlignedDelayNotDelayed(t *testing.T) {
	l := New(1)
	var at Time
	l.Lane(10*time.Millisecond).Schedule(20*time.Millisecond, func() { at = l.Now() })
	l.Run()
	if at != Time(20*time.Millisecond) {
		t.Fatalf("fired at %v, want exactly 20ms", at)
	}
}

// Timers landing in the same bucket share one heap event and run in
// scheduling order.
func TestLaneSharesBucket(t *testing.T) {
	l := New(1)
	ln := l.Lane(10 * time.Millisecond)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		ln.Schedule(time.Duration(i+1)*time.Millisecond, func() { order = append(order, i) })
	}
	if l.Len() != 1 {
		t.Fatalf("Len=%d, want 1 shared bucket event", l.Len())
	}
	l.Run()
	if len(order) != 5 {
		t.Fatalf("fired %d callbacks, want 5", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("bucket ran out of scheduling order: %v", order)
		}
	}
}

func TestLaneTimerStop(t *testing.T) {
	l := New(1)
	ln := l.Lane(10 * time.Millisecond)
	var fired []string
	a := ln.Schedule(time.Millisecond, func() { fired = append(fired, "a") })
	ln.Schedule(2*time.Millisecond, func() { fired = append(fired, "b") })
	if !a.Stop() {
		t.Fatal("Stop on live lane timer returned false")
	}
	if a.Stop() {
		t.Fatal("second Stop returned true")
	}
	l.Run()
	if len(fired) != 1 || fired[0] != "b" {
		t.Fatalf("fired %v, want [b]", fired)
	}
}

// Stopping every entry of a bucket releases its shared heap event.
func TestLaneStopLastEntryReleasesBucket(t *testing.T) {
	l := New(1)
	ln := l.Lane(10 * time.Millisecond)
	a := ln.Schedule(time.Millisecond, func() {})
	b := ln.Schedule(2*time.Millisecond, func() {})
	a.Stop()
	b.Stop()
	if l.Len() != 0 {
		t.Fatalf("Len=%d after stopping the whole bucket, want 0", l.Len())
	}
	// The lane must still work after the bucket was torn down.
	fired := false
	ln.Schedule(time.Millisecond, func() { fired = true })
	l.Run()
	if !fired {
		t.Fatal("lane dead after releasing a bucket")
	}
}

func TestLaneStopAfterFire(t *testing.T) {
	l := New(1)
	tm := l.Lane(time.Millisecond).Schedule(time.Millisecond, func() {})
	l.Run()
	if tm.Stop() {
		t.Fatal("Stop after fire returned true")
	}
	if tm.Active() {
		t.Fatal("fired lane timer reports active")
	}
}

// A callback cancelling a later entry in its own bucket prevents it from
// running.
func TestLaneStopWithinFiringBucket(t *testing.T) {
	l := New(1)
	ln := l.Lane(10 * time.Millisecond)
	var fired []string
	var b LaneTimer
	ln.Schedule(time.Millisecond, func() {
		fired = append(fired, "a")
		b.Stop()
	})
	b = ln.Schedule(2*time.Millisecond, func() { fired = append(fired, "b") })
	l.Run()
	if len(fired) != 1 || fired[0] != "a" {
		t.Fatalf("fired %v, want [a]", fired)
	}
}

// Rescheduling from inside a firing bucket opens a fresh bucket rather than
// appending to the consumed one.
func TestLaneRescheduleFromCallback(t *testing.T) {
	l := New(1)
	ln := l.Lane(10 * time.Millisecond)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 3 {
			ln.Schedule(time.Millisecond, tick)
		}
	}
	ln.Schedule(time.Millisecond, tick)
	l.Run()
	if count != 3 {
		t.Fatalf("ticked %d, want 3", count)
	}
	if l.Now() != Time(30*time.Millisecond) {
		t.Fatalf("finished at %v, want 30ms (one bucket per tick)", l.Now())
	}
}

// Loop.Lane returns one shared lane per granularity.
func TestLoopLaneSharedPerGranularity(t *testing.T) {
	l := New(1)
	if l.Lane(time.Millisecond) != l.Lane(time.Millisecond) {
		t.Fatal("same granularity returned distinct lanes")
	}
	if l.Lane(time.Millisecond) == l.Lane(2*time.Millisecond) {
		t.Fatal("different granularities shared a lane")
	}
}

func TestZeroLaneTimerInert(t *testing.T) {
	var tm LaneTimer
	if tm.Stop() || tm.Active() {
		t.Fatal("zero LaneTimer not inert")
	}
}

// A callback that reschedules for the firing instant and then stops a later
// entry of its own bucket — the bucket's last live one — must not take the
// fresh bucket out of the lane's map: the firing bucket left the map when it
// began to fire, and what the map holds at that instant now is the
// rescheduled entry's.
func TestLaneStopInsideFireKeepsFreshBucket(t *testing.T) {
	l := New(1)
	ln := l.Lane(10 * time.Millisecond)
	var order []string
	var second LaneTimer
	ln.Schedule(10*time.Millisecond, func() {
		order = append(order, "first")
		ln.Schedule(0, func() { order = append(order, "resched") })
		if !second.Stop() {
			t.Error("Stop on a pending entry of the firing bucket returned false")
		}
		if len(ln.buckets) != 1 {
			t.Errorf("%d buckets in the lane's map after the stop, want the rescheduled entry's one", len(ln.buckets))
		}
		// A later Schedule for the same instant joins that bucket.
		ln.Schedule(0, func() { order = append(order, "joined") })
		if l.Len() != 1 {
			t.Errorf("Len=%d, want one shared heap event for the instant", l.Len())
		}
	})
	second = ln.Schedule(10*time.Millisecond, func() { order = append(order, "second") })
	l.Run()
	if want := []string{"first", "resched", "joined"}; !slices.Equal(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	if len(ln.buckets) != 0 {
		t.Fatalf("%d buckets left in the map after the run", len(ln.buckets))
	}
}

// A handle kept past its bucket's fire, or past the stop that released the
// bucket, belongs to an earlier tenancy: it is not active, cannot be stopped,
// and cannot cancel whoever holds the recycled bucket next.
func TestLaneStaleTimerIsInert(t *testing.T) {
	l := New(1)
	ln := l.Lane(10 * time.Millisecond)
	fired := ln.Schedule(time.Millisecond, func() {})
	l.Run()
	stopped := ln.Schedule(time.Millisecond, func() { t.Error("stopped entry fired") })
	if stopped.b != fired.b {
		t.Fatal("the fired bucket was not reused")
	}
	if !stopped.Stop() {
		t.Fatal("Stop on a live entry returned false")
	}
	ran := false
	tenant := ln.Schedule(time.Millisecond, func() { ran = true })
	if tenant.b != fired.b || tenant.idx != fired.idx {
		t.Fatal("the released bucket was not reused slot for slot")
	}
	for _, stale := range []LaneTimer{fired, stopped} {
		if stale.Active() {
			t.Fatal("stale handle reports active")
		}
		if stale.Stop() {
			t.Fatal("stale handle's Stop returned true")
		}
	}
	if !tenant.Active() {
		t.Fatal("a stale Stop cancelled the bucket's next tenant")
	}
	l.Run()
	if !ran {
		t.Fatal("the next tenant did not fire")
	}
}

// A timer that is alone in its bucket and re-armed over and over — the TCP
// retransmission timer, on every ACK — reuses one bucket.
func TestLaneRearmDoesNotAllocate(t *testing.T) {
	l := New(1)
	ln := l.Lane(10 * time.Millisecond)
	fn := func() {}
	tm := ln.Schedule(time.Second, fn)
	allocs := testing.AllocsPerRun(1000, func() {
		tm.Stop()
		tm = ln.Schedule(time.Second, fn)
	})
	if allocs != 0 {
		t.Fatalf("stop-and-rearm allocates %.1f times", allocs)
	}
	fires := 0
	count := func() { fires++ }
	ln.Schedule(0, count)
	l.RunFor(time.Millisecond)
	allocs = testing.AllocsPerRun(1000, func() {
		ln.Schedule(time.Millisecond, count)
		l.RunFor(10 * time.Millisecond)
	})
	if allocs != 0 || fires != 1002 {
		t.Fatalf("schedule-and-fire allocates %.1f times (%d fires)", allocs, fires)
	}
}
