package sim

import (
	"testing"
	"time"
)

func TestAdvanceTo(t *testing.T) {
	l := New(1)
	l.AdvanceTo(Time(5 * time.Millisecond))
	if l.Now() != Time(5*time.Millisecond) {
		t.Fatalf("Now() = %v after AdvanceTo(5ms)", l.Now())
	}
	// An event at exactly the target instant may stay pending, matching
	// RunUntil's treatment of work scheduled at the final barrier time.
	l.At(Time(8*time.Millisecond), func() {})
	l.AdvanceTo(Time(8 * time.Millisecond))
	if l.Len() != 1 {
		t.Fatalf("event at the target instant was consumed")
	}
}

func TestAdvanceToPanicsOnPendingWork(t *testing.T) {
	l := New(1)
	l.At(Time(time.Millisecond), func() {})
	defer func() {
		if recover() == nil {
			t.Fatalf("AdvanceTo past a pending event did not panic")
		}
	}()
	l.AdvanceTo(Time(2 * time.Millisecond))
}

func TestAdvanceToPanicsOnQueuedWork(t *testing.T) {
	l := New(1)
	l.NewQueue().At(Time(time.Millisecond), func() {})
	defer func() {
		if recover() == nil {
			t.Fatalf("AdvanceTo past a queued entry did not panic")
		}
	}()
	l.AdvanceTo(Time(2 * time.Millisecond))
}

func TestAdvanceToPanicsOnPast(t *testing.T) {
	l := New(1)
	l.RunUntil(Time(time.Millisecond))
	defer func() {
		if recover() == nil {
			t.Fatalf("AdvanceTo into the past did not panic")
		}
	}()
	l.AdvanceTo(0)
}

// TestShardStatsSilentShards pins the skip accounting: a shard that never
// has work must skip every epoch, wait at no barrier, and dispatch no
// events, while the busy shards participate.
func TestShardStatsSilentShards(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, ss := ring(2, 2, workers, 7)
		for _, silent := range []int{2, 3} {
			st := ss.ShardStats(silent)
			if st.BarrierWaits != 0 || st.EventsDispatched != 0 {
				t.Errorf("workers=%d shard %d: BarrierWaits=%d EventsDispatched=%d, want 0/0",
					workers, silent, st.BarrierWaits, st.EventsDispatched)
			}
			if st.EpochsSkipped != ss.Epochs() {
				t.Errorf("workers=%d shard %d: EpochsSkipped=%d, want every epoch (%d)",
					workers, silent, st.EpochsSkipped, ss.Epochs())
			}
		}
		busy := ss.ShardStats(0)
		if busy.BarrierWaits == 0 || busy.EventsDispatched == 0 {
			t.Errorf("workers=%d shard 0: BarrierWaits=%d EventsDispatched=%d, want both > 0",
				workers, busy.BarrierWaits, busy.EventsDispatched)
		}
		var dispatched uint64
		for i := range ss.Shards() {
			dispatched += ss.ShardStats(i).EventsDispatched
		}
		if dispatched != ss.Executed() {
			t.Errorf("workers=%d: sum of EventsDispatched=%d, Executed=%d", workers, dispatched, ss.Executed())
		}
	}
}

// TestShardSkipSeesQueuedWork gives one shard no pending work but a queue
// entry inside the first epoch: the shard must take part in that epoch and
// run the entry at its instant, not be skipped past it.
func TestShardSkipSeesQueuedWork(t *testing.T) {
	for _, workers := range []int{1, 2} {
		loops := []*Loop{New(1), New(2)}
		ss := NewShardSet(loops, 10*time.Millisecond)
		ss.SetWorkers(workers)
		loops[0].At(Time(time.Millisecond), func() {})
		var ranAt Time = -1
		loops[1].DelayQueue(3 * time.Millisecond).Schedule(func() { ranAt = loops[1].Now() })
		ss.RunUntil(Time(20 * time.Millisecond))
		if ranAt != Time(3*time.Millisecond) {
			t.Fatalf("workers=%d: queued entry ran at %v, want 3ms", workers, ranAt)
		}
		if st := ss.ShardStats(1); st.BarrierWaits != 1 || st.EventsDispatched != 1 {
			t.Fatalf("workers=%d: shard 1 BarrierWaits=%d EventsDispatched=%d, want 1/1",
				workers, st.BarrierWaits, st.EventsDispatched)
		}
	}
}

// TestShardStatsDeterministic requires the barrier counters themselves to
// be worker-independent: they are exported as metrics, and metrics rows
// must stay byte-identical across worker counts.
func TestShardStatsDeterministic(t *testing.T) {
	_, base := ring(2, 2, 1, 11)
	for _, workers := range []int{2, 4, 8} {
		_, got := ring(2, 2, workers, 11)
		for i := range base.Shards() {
			if b, g := base.ShardStats(i), got.ShardStats(i); b != g {
				t.Errorf("workers=%d shard %d stats %+v, workers=1 %+v", workers, i, g, b)
			}
		}
		if base.Epochs() != got.Epochs() {
			t.Errorf("workers=%d epochs=%d, workers=1 epochs=%d", workers, got.Epochs(), base.Epochs())
		}
	}
}
