package sim

import (
	"testing"
	"time"
)

// Cancelled timers must leave the queue immediately: Len and
// QueueHighWater report live events only, so the telemetry gauges built on
// them cannot be inflated by dead entries.
func TestCancelledTimersLeaveQueue(t *testing.T) {
	l := New(1)
	timers := make([]Timer, 100)
	for i := range timers {
		timers[i] = l.Schedule(time.Duration(i+1)*time.Millisecond, func() {})
	}
	if l.Len() != 100 {
		t.Fatalf("Len=%d, want 100", l.Len())
	}
	for _, tm := range timers {
		if !tm.Stop() {
			t.Fatal("Stop on a live timer returned false")
		}
	}
	if l.Len() != 0 {
		t.Fatalf("Len=%d after cancelling everything, want 0", l.Len())
	}
	// New work after the mass-cancel must not stack on top of dead entries.
	for i := 0; i < 5; i++ {
		l.Schedule(time.Millisecond, func() {})
	}
	if l.Len() != 5 {
		t.Fatalf("Len=%d, want 5", l.Len())
	}
	if hw := l.QueueHighWater(); hw != 100 {
		t.Fatalf("QueueHighWater=%d, want 100 (the true live maximum)", hw)
	}
	l.Run()
	if l.Executed() != 5 {
		t.Fatalf("Executed=%d, want 5", l.Executed())
	}
}

// A handle from a previous life of a recycled event record must be inert:
// it reports inactive, and Stop must not cancel the record's new timer.
func TestStaleHandleDoesNotCancelRecycledEvent(t *testing.T) {
	l := New(1)
	old := l.Schedule(time.Millisecond, func() {})
	if !old.Stop() {
		t.Fatal("Stop on live timer returned false")
	}
	fired := false
	fresh := l.Schedule(2*time.Millisecond, func() { fired = true })
	if old.Active() {
		t.Fatal("stale handle reports active")
	}
	if old.Stop() {
		t.Fatal("stale handle Stop returned true")
	}
	if !fresh.Active() {
		t.Fatal("stale Stop cancelled the recycled event's new timer")
	}
	l.Run()
	if !fired {
		t.Fatal("recycled event's timer did not fire")
	}
}

// A handle to an event that already fired goes inert even after the record
// is reused.
func TestHandleInertAfterFire(t *testing.T) {
	l := New(1)
	tm := l.Schedule(time.Millisecond, func() {})
	l.Run()
	fired := false
	l.Schedule(time.Millisecond, func() { fired = true })
	if tm.Stop() {
		t.Fatal("Stop after fire returned true")
	}
	l.Run()
	if !fired {
		t.Fatal("reused record's timer was cancelled by a spent handle")
	}
}

// A callback may reschedule from inside its own firing; the freshly
// recycled record is safe to reuse immediately.
func TestRescheduleFromCallbackReusesRecord(t *testing.T) {
	l := New(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 10 {
			l.Schedule(time.Millisecond, tick)
		}
	}
	l.Schedule(time.Millisecond, tick)
	l.Run()
	if count != 10 {
		t.Fatalf("ticked %d times, want 10", count)
	}
	// Steady-state periodic work needs exactly one event record.
	if got := l.free.Free(); got != 1 {
		t.Fatalf("free list holds %d records after a periodic chain, want 1", got)
	}
}

// Steady-state schedule/fire cycles must not allocate: the event records
// come from the loop's free list.
func TestSteadyStateSchedulingDoesNotAllocate(t *testing.T) {
	l := New(1)
	fn := func() {}
	// Warm the free list.
	for i := 0; i < 100; i++ {
		l.Schedule(time.Microsecond, fn)
	}
	l.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		l.Schedule(time.Microsecond, fn)
		l.Step()
	})
	if allocs != 0 {
		t.Fatalf("schedule+fire allocated %.1f objects/op, want 0", allocs)
	}
}

func TestStopTwiceOnSameHandle(t *testing.T) {
	l := New(1)
	tm := l.Schedule(time.Millisecond, func() {})
	if !tm.Stop() || tm.Stop() {
		t.Fatal("Stop/Stop want true,false")
	}
	if l.Len() != 0 {
		t.Fatalf("Len=%d, want 0", l.Len())
	}
}
