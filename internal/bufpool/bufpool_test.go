package bufpool

import (
	"testing"

	"mosquitonet/internal/sim"
)

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
	l := For(sim.New(1))
	b := l.Get(100)
	for i := range b {
		b[i] = 0xAB
	}
	l.Put(b)
	c := l.Get(100)
	if cap(c) != 128 {
		t.Fatalf("cap=%d, want 128", cap(c))
	}
	if &c[0] != &b[0] {
		t.Fatal("the loop's list did not hand back the buffer just put")
	}
	l.Put(c)
}

// TestSteadyStateGetPutDoesNotAllocate: once a loop's list holds a buffer
// of the class, a Get and a Put on it allocate nothing.
func TestSteadyStateGetPutDoesNotAllocate(t *testing.T) {
	l := For(sim.New(1))
	// Warm the class once.
	l.Put(l.Get(1500))
	allocs := testing.AllocsPerRun(1000, func() {
		b := l.Get(1500)
		b[0] = 1
		l.Put(b)
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

// TestListsBelongToTheirLoop: For attaches one set of lists to a loop and
// returns it on every call; another loop's lists are its own, so a buffer
// put on one is never handed out by the other.
func TestListsBelongToTheirLoop(t *testing.T) {
	a, b := sim.New(1), sim.New(2)
	la, lb := For(a), For(b)
	if For(a) != la || la == lb {
		t.Fatal("For does not return one set of lists per loop")
	}
	la.Put(la.Get(64))
	if la.Held(0) != 1 || lb.Held(0) != 0 {
		t.Fatalf("after a Put on a's lists: a holds %d, b %d; want 1 and 0", la.Held(0), lb.Held(0))
	}
	if got := lb.Get(64); cap(got) != 64 || la.Held(0) != 1 {
		t.Fatal("a Get on b's lists took a's buffer")
	}
}

// TestPutBeyondTheCapIsDropped: a list keeps MaxHeld buffers of its class
// and leaves the rest to the garbage collector, still counting each Put.
func TestPutBeyondTheCapIsDropped(t *testing.T) {
	l := For(sim.New(1))
	c := Classes - 1
	if MaxHeld(c) < 1 || MaxHeld(0) < MaxHeld(c) {
		t.Fatalf("MaxHeld(0) = %d, MaxHeld(%d) = %d", MaxHeld(0), c, MaxHeld(c))
	}
	Count(true)
	defer Count(false)
	before := ReadStats()
	for i := 0; i < MaxHeld(c)+3; i++ {
		l.Put(make([]byte, 0, Size(c)))
	}
	if l.Held(c) != MaxHeld(c) {
		t.Fatalf("the list holds %d buffers, want its cap %d", l.Held(c), MaxHeld(c))
	}
	if puts := ReadStats().Puts - before.Puts; puts != uint64(MaxHeld(c)+3) {
		t.Fatalf("%d Puts counted, want %d", puts, MaxHeld(c)+3)
	}
}

// TestNoLoopAllocates: the package functions, for code with no loop, hand
// out class-sized buffers and keep none.
func TestNoLoopAllocates(t *testing.T) {
	b := Get(100)
	if len(b) != 100 || cap(b) != 128 {
		t.Fatalf("Get(100): len %d cap %d, want 100 and 128", len(b), cap(b))
	}
	Put(b)
	if c := Get(100); &c[0] == &b[0] {
		t.Fatal("Get with no loop handed back a buffer put before")
	}
}
