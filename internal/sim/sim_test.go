package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// quickConfig is a testing/quick configuration whose generator has a fixed
// seed, so a failing property reproduces on the next run (maxCount 0 keeps
// quick's default of 100).
func quickConfig(maxCount int) *quick.Config {
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(1996))}
}

func TestScheduleOrdering(t *testing.T) {
	l := New(1)
	var got []int
	l.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	l.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	l.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	l.Run()
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	l := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		l.Schedule(5*time.Millisecond, func() { got = append(got, i) })
	}
	l.Run()
	if !sort.IntsAreSorted(got) {
		t.Fatalf("same-instant events ran out of scheduling order: %v", got)
	}
}

func TestClockAdvances(t *testing.T) {
	l := New(1)
	var at Time
	l.Schedule(42*time.Millisecond, func() { at = l.Now() })
	l.Run()
	if at != Time(42*time.Millisecond) {
		t.Fatalf("event saw clock %v, want 42ms", at)
	}
	if l.Now() != Time(42*time.Millisecond) {
		t.Fatalf("final clock %v, want 42ms", l.Now())
	}
}

func TestNegativeDelayClampedToNow(t *testing.T) {
	l := New(1)
	l.Schedule(10*time.Millisecond, func() {
		fired := false
		l.Schedule(-5*time.Millisecond, func() { fired = true })
		l.Schedule(0, func() {
			if !fired {
				t.Error("negative-delay event did not run before later same-instant event")
			}
		})
	})
	l.Run()
	if l.Now() != Time(10*time.Millisecond) {
		t.Fatalf("clock moved backwards: %v", l.Now())
	}
}

func TestAtPastPanics(t *testing.T) {
	l := New(1)
	l.Schedule(10*time.Millisecond, func() {})
	l.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("At in the past did not panic")
		}
	}()
	l.At(Time(5*time.Millisecond), func() {})
}

func TestTimerStop(t *testing.T) {
	l := New(1)
	fired := false
	tm := l.Schedule(10*time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("first Stop returned false")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	l.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	l := New(1)
	tm := l.Schedule(time.Millisecond, func() {})
	l.Run()
	if tm.Stop() {
		t.Fatal("Stop after firing returned true")
	}
}

func TestStopZeroTimer(t *testing.T) {
	var tm Timer
	if tm.Stop() {
		t.Fatal("zero timer Stop returned true")
	}
	if tm.Active() {
		t.Fatal("zero timer reported active")
	}
}

func TestRunUntilAdvancesToExactTime(t *testing.T) {
	l := New(1)
	ran := 0
	l.Schedule(10*time.Millisecond, func() { ran++ })
	l.Schedule(30*time.Millisecond, func() { ran++ })
	l.RunUntil(Time(20 * time.Millisecond))
	if ran != 1 {
		t.Fatalf("ran %d events, want 1", ran)
	}
	if l.Now() != Time(20*time.Millisecond) {
		t.Fatalf("clock %v, want 20ms", l.Now())
	}
	l.RunFor(10 * time.Millisecond)
	if ran != 2 {
		t.Fatalf("ran %d events, want 2", ran)
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	l := New(1)
	ran := false
	l.Schedule(10*time.Millisecond, func() { ran = true })
	l.RunUntil(Time(10 * time.Millisecond))
	if !ran {
		t.Fatal("event at window boundary did not run")
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	l := New(1)
	var order []string
	l.Schedule(time.Millisecond, func() {
		order = append(order, "a")
		l.Schedule(time.Millisecond, func() { order = append(order, "c") })
		l.Schedule(0, func() { order = append(order, "b") })
	})
	l.Run()
	want := []string{"a", "b", "c"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func(seed int64) []int64 {
		l := New(seed)
		var samples []int64
		var tick func()
		tick = func() {
			samples = append(samples, l.Rand().Int63n(1000))
			if len(samples) < 50 {
				l.Schedule(time.Duration(l.Rand().Int63n(int64(time.Millisecond))), tick)
			}
		}
		l.Schedule(0, tick)
		l.Run()
		return samples
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestExecutedCountsOnlyLiveEvents(t *testing.T) {
	l := New(1)
	tm := l.Schedule(time.Millisecond, func() {})
	l.Schedule(2*time.Millisecond, func() {})
	tm.Stop()
	l.Run()
	if l.Executed() != 1 {
		t.Fatalf("Executed=%d, want 1", l.Executed())
	}
}

func TestNextEventAt(t *testing.T) {
	l := New(1)
	if _, ok := l.NextEventAt(); ok {
		t.Fatal("empty loop reported a next event")
	}
	tm := l.Schedule(5*time.Millisecond, func() {})
	l.Schedule(9*time.Millisecond, func() {})
	if at, ok := l.NextEventAt(); !ok || at != Time(5*time.Millisecond) {
		t.Fatalf("next=%v ok=%v, want 5ms", at, ok)
	}
	tm.Stop()
	if at, ok := l.NextEventAt(); !ok || at != Time(9*time.Millisecond) {
		t.Fatalf("next after cancel=%v ok=%v, want 9ms", at, ok)
	}
}

func TestJitterBounds(t *testing.T) {
	l := New(3)
	for i := 0; i < 1000; i++ {
		v := l.Jitter(100*time.Millisecond, 20*time.Millisecond)
		if v < 80*time.Millisecond || v > 120*time.Millisecond {
			t.Fatalf("jitter %v outside [80ms,120ms]", v)
		}
	}
	if v := l.Jitter(time.Millisecond, 0); v != time.Millisecond {
		t.Fatalf("zero-spread jitter changed value: %v", v)
	}
	for i := 0; i < 1000; i++ {
		if v := l.Jitter(time.Millisecond, 10*time.Millisecond); v < 0 {
			t.Fatalf("jitter went negative: %v", v)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(100 * time.Millisecond)
	if a.Add(50*time.Millisecond) != Time(150*time.Millisecond) {
		t.Fatal("Add wrong")
	}
	if a.Sub(Time(30*time.Millisecond)) != 70*time.Millisecond {
		t.Fatal("Sub wrong")
	}
	if a.Duration() != 100*time.Millisecond {
		t.Fatal("Duration wrong")
	}
	if a.String() != "100ms" {
		t.Fatalf("String = %q", a.String())
	}
}

// Property: for any batch of events with arbitrary non-negative delays, the
// loop executes them in nondecreasing time order, ties broken by
// scheduling order.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		l := New(1)
		type rec struct {
			at  Time
			seq int
		}
		var got []rec
		for i, d := range delays {
			i, at := i, time.Duration(d)*time.Microsecond
			l.Schedule(at, func() { got = append(got, rec{l.Now(), i}) })
		}
		l.Run()
		if len(got) != len(delays) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
			if got[i].at == got[i-1].at && got[i].seq < got[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(200)); err != nil {
		t.Fatal(err)
	}
}

// Property: RunUntil never overshoots and never runs an event scheduled
// after the target time.
func TestPropertyRunUntilWindow(t *testing.T) {
	f := func(delays []uint16, window uint16) bool {
		l := New(1)
		target := Time(time.Duration(window) * time.Microsecond)
		ok := true
		for _, d := range delays {
			at := time.Duration(d) * time.Microsecond
			l.Schedule(at, func() {
				if l.Now() > target {
					ok = false
				}
			})
		}
		l.RunUntil(target)
		return ok && l.Now() == target
	}
	if err := quick.Check(f, quickConfig(200)); err != nil {
		t.Fatal(err)
	}
}

// Property: stopping a random subset of timers means exactly the live ones
// fire.
func TestPropertyTimerStopSubset(t *testing.T) {
	f := func(n uint8, seed int64) bool {
		l := New(1)
		r := rand.New(rand.NewSource(seed))
		fired := make([]bool, n)
		timers := make([]Timer, n)
		for i := 0; i < int(n); i++ {
			i := i
			timers[i] = l.Schedule(time.Duration(i)*time.Microsecond, func() { fired[i] = true })
		}
		stopped := make([]bool, n)
		for i := range timers {
			if r.Intn(2) == 0 {
				stopped[i] = timers[i].Stop()
			}
		}
		l.Run()
		for i := range fired {
			if fired[i] == stopped[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(100)); err != nil {
		t.Fatal(err)
	}
}
