package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// benchQueue returns a loop holding depth pending events at seeded random
// offsets inside one virtual second, the shape a fleet's queue has: timers of
// many hosts interleaved, no order between neighbours in the heap.
func benchQueue(depth int) (*Loop, *rand.Rand) {
	loop := New(1)
	rng := rand.New(rand.NewSource(int64(depth)))
	for i := 0; i < depth; i++ {
		loop.Schedule(time.Duration(rng.Int63n(int64(time.Second))), func() {})
	}
	return loop, rng
}

// BenchmarkPushPop is one Schedule plus one Step with the queue held at a
// fixed depth: each fired event is replaced by one a random offset ahead, so
// both sifts travel a typical distance.
func BenchmarkPushPop(b *testing.B) {
	for _, depth := range []int{1 << 10, 1 << 15} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			loop, rng := benchQueue(depth)
			fn := func() {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				loop.Schedule(time.Duration(rng.Int63n(int64(time.Second))), fn)
				loop.Step()
			}
			b.StopTimer()
			if loop.Len() != depth {
				b.Fatalf("queue depth drifted to %d, want %d", loop.Len(), depth)
			}
		})
	}
}

// BenchmarkStopMiddle cancels a random pending timer of a 32k-deep queue —
// wherever in the heap it has settled — and schedules its replacement: the
// retransmission-timer pattern, where nearly every timer is stopped before it
// fires.
func BenchmarkStopMiddle(b *testing.B) {
	const depth = 1 << 15
	loop := New(1)
	rng := rand.New(rand.NewSource(depth))
	fn := func() {}
	timers := make([]Timer, depth)
	for i := range timers {
		timers[i] = loop.Schedule(time.Duration(rng.Int63n(int64(time.Second))), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := rng.Intn(depth)
		if !timers[k].Stop() {
			b.Fatal("Stop on a pending timer reported false")
		}
		timers[k] = loop.Schedule(time.Duration(rng.Int63n(int64(time.Second))), fn)
	}
	b.StopTimer()
	if loop.Len() != depth {
		b.Fatalf("queue depth drifted to %d, want %d", loop.Len(), depth)
	}
}

// BenchmarkDelayQueue is one push onto a fixed-delay queue plus one Step,
// beside a heap held at a fixed depth of timers that stay pending (they lie
// an hour ahead): the entry never sifts, so its cost should not depend on
// the heap's depth.
func BenchmarkDelayQueue(b *testing.B) {
	for _, depth := range []int{1 << 10, 1 << 15} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			loop := New(1)
			rng := rand.New(rand.NewSource(int64(depth)))
			fn := func() {}
			for i := 0; i < depth; i++ {
				loop.Schedule(time.Hour+time.Duration(rng.Int63n(int64(time.Second))), fn)
			}
			q := loop.DelayQueue(time.Microsecond)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Schedule(fn)
				loop.Step()
			}
			b.StopTimer()
			if loop.Len() != depth || loop.Now() >= Time(time.Hour) {
				b.Fatalf("a heap timer fired: len %d, now %v", loop.Len(), loop.Now())
			}
		})
	}
}
