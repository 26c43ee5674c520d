package bufpool

import "testing"

func TestGetLengthAndClassCap(t *testing.T) {
	for _, n := range []int{0, 1, 28, 64, 65, 1500, 65535, 65536} {
		b := Get(n)
		if len(b) != n {
			t.Fatalf("Get(%d) len=%d", n, len(b))
		}
		if n <= 1<<maxShift && (cap(b)&(cap(b)-1)) != 0 {
			t.Fatalf("Get(%d) cap=%d not a power of two", n, cap(b))
		}
		Put(b)
	}
}

func TestOversizeFallsBack(t *testing.T) {
	b := Get(1<<maxShift + 1)
	if len(b) != 1<<maxShift+1 {
		t.Fatalf("oversize Get len=%d", len(b))
	}
	Put(b) // must not panic, silently dropped
}

func TestPutNilNoop(t *testing.T) {
	Put(nil)
}

func TestRecycleRoundTrip(t *testing.T) {
	b := Get(100)
	for i := range b {
		b[i] = 0xAB
	}
	Put(b)
	c := Get(100)
	if cap(c) != 128 {
		t.Fatalf("cap=%d, want 128", cap(c))
	}
	Put(c)
}

func TestSteadyStateGetPutDoesNotAllocate(t *testing.T) {
	// Warm each class once.
	Put(Get(1500))
	allocs := testing.AllocsPerRun(1000, func() {
		b := Get(1500)
		b[0] = 1
		Put(b)
	})
	if allocs != 0 {
		t.Fatalf("Get/Put allocated %.1f objects/op, want 0", allocs)
	}
}

// TestCountsOnlyWhenAsked: the Get/Put counters move while Count is on and
// stand still while it is off, so an unaudited run writes nothing shared.
func TestCountsOnlyWhenAsked(t *testing.T) {
	before := ReadStats()
	Put(Get(100))
	if after := ReadStats(); after != before {
		t.Fatalf("counters moved with Count off: %+v -> %+v", before, after)
	}
	Count(true)
	defer Count(false)
	b := Get(100)
	if got := ReadStats().Outstanding() - before.Outstanding(); got != 1 {
		t.Fatalf("outstanding after one Get = %+d, want +1", got)
	}
	Put(b)
	Put(make([]byte, 100)) // foreign: dropped, not counted
	if after := ReadStats(); after.Gets != before.Gets+1 || after.Puts != before.Puts+1 {
		t.Fatalf("after one Get and one Put: %+v, started at %+v", after, before)
	}
}

// TestClassIsTheSmallestThatHolds: Class picks the smallest class whose Size
// holds n, and -1 past the largest.
func TestClassIsTheSmallestThatHolds(t *testing.T) {
	for n := 0; n <= 1<<maxShift+1; n++ {
		want := -1
		for c := 0; c < Classes; c++ {
			if n <= Size(c) {
				want = c
				break
			}
		}
		if got := Class(n); got != want {
			t.Fatalf("Class(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestLentAndReturnedCount: a buffer that leaves and comes back by another
// pool counts as a Get and a Put, and only while Count is on.
func TestLentAndReturnedCount(t *testing.T) {
	before := ReadStats()
	Lent(3)
	Returned(3)
	if after := ReadStats(); after != before {
		t.Fatalf("counters moved with Count off: %+v -> %+v", before, after)
	}
	Count(true)
	defer Count(false)
	Lent(3)
	if got := ReadStats().Outstanding() - before.Outstanding(); got != 1 {
		t.Fatalf("outstanding after Lent = %+d, want +1", got)
	}
	Returned(3)
	if after := ReadStats(); after.Gets != before.Gets+1 || after.Puts != before.Puts+1 {
		t.Fatalf("after one Lent and one Returned: %+v, started at %+v", after, before)
	}
}
