package sim

import (
	"testing"
	"time"
)

// A monotone queue refuses an instant before its last push, as At refuses
// the past: the loop's order would otherwise silently disagree with it.
func TestQueuePushBeforeLastPanics(t *testing.T) {
	l := New(1)
	q := l.NewQueue()
	q.At(Time(5*time.Millisecond), func() {})
	q.At(Time(5*time.Millisecond), func() {}) // the same instant is in order
	defer func() {
		if recover() == nil {
			t.Fatal("a push before the queue's last instant did not panic")
		}
	}()
	q.At(Time(4*time.Millisecond), func() {})
}

// A push into the loop's past panics even on a queue that has drained.
func TestQueuePushIntoThePastPanics(t *testing.T) {
	l := New(1)
	q := l.NewQueue()
	l.RunUntil(Time(time.Millisecond))
	defer func() {
		if recover() == nil {
			t.Fatal("a queue push before now did not panic")
		}
	}()
	q.At(0, func() {})
}

// Delay queues are shared per delay, and a negative delay is zero.
func TestDelayQueueSharedPerDelay(t *testing.T) {
	l := New(1)
	if l.DelayQueue(time.Millisecond) != l.DelayQueue(time.Millisecond) {
		t.Fatal("two queues for one delay")
	}
	if l.DelayQueue(-time.Millisecond) != l.DelayQueue(0) {
		t.Fatal("a negative delay got its own queue")
	}
	if l.DelayQueue(time.Millisecond) == l.DelayQueue(2*time.Millisecond) {
		t.Fatal("two delays share a queue")
	}
}

// Steady-state push and pop through a queue allocates nothing once its ring
// has grown, as TestSteadyStateSchedulingDoesNotAllocate checks for the
// heap.
func TestQueueSteadyStateDoesNotAllocate(t *testing.T) {
	l := New(1)
	q := l.DelayQueue(time.Microsecond)
	fn := func() {}
	for i := 0; i < 100; i++ {
		q.Schedule(fn)
	}
	l.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		q.Schedule(fn)
		l.Step()
	})
	if allocs != 0 {
		t.Fatalf("queue push+pop allocated %.1f objects/op, want 0", allocs)
	}
}
