package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// ring drives posters shards that post to each other in a ring, plus
// silent shards that never schedule or receive anything, on the given
// worker count. It returns a full transcript of what ran where and when,
// with each shard's RNG draws — the raw material every determinism
// assertion in this package compares — and the set, for its counters.
func ring(posters, silent, workers int, seed int64) ([]string, *ShardSet) {
	const lookahead = 2 * time.Millisecond
	loops := make([]*Loop, posters+silent)
	for i := range loops {
		loops[i] = New(ShardSeed(seed, i))
	}
	ss := NewShardSet(loops, lookahead)
	ss.SetWorkers(workers)

	// One transcript per shard, appended only by that shard's goroutine —
	// the same share-nothing discipline real shard code must follow. The
	// final transcript is the deterministic concatenation in shard order;
	// cross-shard interleaving within an epoch is intentionally not an
	// observable.
	logs := make([][]string, posters)
	record := func(shard int, what string) {
		loop := loops[shard]
		logs[shard] = append(logs[shard], fmt.Sprintf("%v shard%d %s rng=%d", loop.Now(), shard, what, loop.Rand().Intn(1000)))
	}

	// Shard k fires ten volleys, one every 500µs plus 37µs a shard; each
	// volley posts work to the next shard of the ring arriving lookahead
	// plus a random 0–200µs later, so one source's posts are not always in
	// arrival order, and the receiver echoes back likewise.
	for k := 0; k < posters; k++ {
		src, next := loops[k], (k+1)%posters
		var volley func(v int)
		volley = func(v int) {
			record(k, fmt.Sprintf("volley%d", v))
			at := src.Now().Add(lookahead + time.Duration(src.Rand().Intn(3))*100*time.Microsecond)
			ss.Post(k, next, at, func() {
				record(next, fmt.Sprintf("recv%d.%d", k, v))
				back := loops[next].Now().Add(lookahead)
				ss.Post(next, k, back, func() { record(k, fmt.Sprintf("echo%d", v)) })
			})
			if v < 9 {
				src.Schedule(time.Duration(500+37*k)*time.Microsecond, func() { volley(v + 1) })
			}
		}
		src.Schedule(0, func() { volley(0) })

		// Independent local churn so the heaps stay busy.
		for i := 0; i < 20; i++ {
			src.Schedule(time.Duration(i*(271+31*k))*time.Microsecond, func() { record(k, fmt.Sprintf("local%d", i)) })
		}
	}

	ss.RunFor(50 * time.Millisecond)
	var log []string
	for _, l := range logs {
		log = append(log, l...)
	}
	log = append(log, fmt.Sprintf("epochs=%d cross=%d executed=%d now=%v",
		ss.Epochs(), ss.CrossDelivered(), ss.Executed(), ss.Now()))
	return log, ss
}

// TestShardSetDeterministicAcrossWorkers runs a ring of five posting
// shards and one silent one on 1, 2, 3, 4 and 8 workers: more shards than
// workers, more workers than shards, epochs where one share alone has
// work and shares that have none. The transcript and every shard's
// counters must equal the one-worker run's.
func TestShardSetDeterministicAcrossWorkers(t *testing.T) {
	base, baseSet := ring(5, 1, 1, 42)
	for _, workers := range []int{2, 3, 4, 8} {
		got, set := ring(5, 1, workers, 42)
		if len(got) != len(base) {
			t.Fatalf("workers=%d produced %d log lines, workers=1 produced %d", workers, len(got), len(base))
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("workers=%d diverges at line %d:\n  workers=1: %s\n  workers=%d: %s",
					workers, i, base[i], workers, got[i])
			}
		}
		for i := range baseSet.Shards() {
			if b, g := baseSet.ShardStats(i), set.ShardStats(i); b != g {
				t.Errorf("workers=%d shard %d stats %+v, workers=1 %+v", workers, i, g, b)
			}
		}
		// One busy-time slot per goroutine that ran shards, the caller's
		// first; the caller runs a share in every epoch that has work.
		busy := set.WorkerBusy()
		if len(busy) != min(workers, 6) || busy[0] <= 0 {
			t.Errorf("workers=%d: WorkerBusy %v, want %d slots and a busy caller", workers, busy, min(workers, 6))
		}
	}
	if busy := baseSet.WorkerBusy(); len(busy) != 0 {
		t.Errorf("workers=1: WorkerBusy %v, want none", busy)
	}
}

func TestShardSetCrossShardDelivery(t *testing.T) {
	log, _ := ring(2, 0, 4, 7)
	var recvs, echoes int
	for _, line := range log {
		if strings.Contains(line, " recv") {
			recvs++
		}
		if strings.Contains(line, " echo") {
			echoes++
		}
	}
	if recvs != 20 || echoes != 20 {
		t.Fatalf("expected 20 recv + 20 echo cross-shard callbacks, got %d + %d", recvs, echoes)
	}
}

func TestShardSetAdvancesIdleShards(t *testing.T) {
	a := New(1)
	b := New(2)
	ss := NewShardSet([]*Loop{a, b}, time.Millisecond)
	// Only shard 0 has work, early on; shard 1 is idle throughout.
	ran := false
	a.Schedule(100*time.Microsecond, func() { ran = true })
	ss.RunFor(10 * time.Second)
	if !ran {
		t.Fatal("shard 0 event did not run")
	}
	if a.Now() != b.Now() || a.Now() != ss.Now() {
		t.Fatalf("clocks diverged: a=%v b=%v set=%v", a.Now(), b.Now(), ss.Now())
	}
	if want := Time(10 * time.Second); ss.Now() != want {
		t.Fatalf("set time %v, want %v", ss.Now(), want)
	}
	// The idle tail must be skipped, not stepped epoch by epoch: with one
	// event at 100µs and 10s of idle time after it, the epoch count stays
	// tiny instead of ~10s/1ms = 10000.
	if ss.Epochs() > 4 {
		t.Fatalf("idle time was not skipped: %d epochs", ss.Epochs())
	}
}

func TestShardSetLookaheadViolationPanics(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		before := runtime.NumGoroutine()
		a := New(1)
		b := New(2)
		ss := NewShardSet([]*Loop{a, b}, time.Millisecond)
		ss.SetWorkers(workers)
		a.Schedule(0, func() {
			// Posting work closer than the lookahead is a wiring bug; the
			// barrier must catch it rather than corrupt causality.
			ss.Post(0, 1, a.Now().Add(10*time.Microsecond), func() {})
		})
		if p := runRecovering(func() { ss.RunFor(time.Second) }); p == nil {
			t.Fatalf("workers=%d: expected lookahead-violation panic", workers)
		}
		awaitGoroutines(t, workers, before)
	}
}

// TestShardSetShardPanicReachesCaller panics in an event of shard 1 while
// every shard has work, so that above one worker shard 1 runs on a worker
// goroutine. The caller of RunFor must recover the same value at every
// worker count, with no goroutine left behind.
func TestShardSetShardPanicReachesCaller(t *testing.T) {
	const boom = "boom in shard 1"
	for _, workers := range []int{1, 2, 4} {
		before := runtime.NumGoroutine()
		loops := make([]*Loop, 4)
		for i := range loops {
			loops[i] = New(ShardSeed(3, i))
			loops[i].Schedule(time.Millisecond, func() {})
		}
		loops[1].Schedule(time.Millisecond, func() { panic(boom) })
		ss := NewShardSet(loops, time.Millisecond)
		ss.SetWorkers(workers)
		if p := runRecovering(func() { ss.RunFor(time.Second) }); p != boom {
			t.Fatalf("workers=%d: RunFor panicked with %v, want %q", workers, p, boom)
		}
		awaitGoroutines(t, workers, before)
	}
}

// runRecovering calls f and returns the value it panicked with, or nil.
func runRecovering(f func()) (p any) {
	defer func() { p = recover() }()
	f()
	return nil
}

// awaitGoroutines waits, up to a bound, for the goroutine count to fall
// back to want: a worker that has been joined may still be counted for
// the instant between its last deferred call and its exit.
func awaitGoroutines(t *testing.T, workers, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("workers=%d: %d goroutines after the panic, %d before", workers, runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
	}
}

// TestMergeAllocatesNothing runs warm epochs whose barriers merge posts
// from one source, and from two sources out of arrival order, so both the
// already-sorted merge and the sorting one run. Neither may allocate.
func TestMergeAllocatesNothing(t *testing.T) {
	const lookahead = time.Millisecond
	a, b, c := New(1), New(2), New(3)
	ss := NewShardSet([]*Loop{a, b, c}, lookahead)
	land := func() {}
	// a posts every epoch; b posts every other epoch, arriving before a's.
	var tickA, tickB func()
	tickA = func() {
		ss.Post(0, 2, a.Now().Add(lookahead+200*time.Microsecond), land)
		a.Schedule(lookahead, tickA)
	}
	tickB = func() {
		ss.Post(1, 2, b.Now().Add(lookahead), land)
		b.Schedule(2*lookahead, tickB)
	}
	a.Schedule(0, tickA)
	b.Schedule(0, tickB)
	ss.RunFor(20 * lookahead)
	before := ss.CrossDelivered()
	allocs := testing.AllocsPerRun(10, func() { ss.RunFor(10 * lookahead) })
	if ss.CrossDelivered()-before < 100 {
		t.Fatalf("%d posts merged, want at least 100", ss.CrossDelivered()-before)
	}
	if allocs != 0 {
		t.Fatalf("%.1f allocations per 10 epochs with posts, want 0", allocs)
	}
}

func TestShardSeedDistinct(t *testing.T) {
	seen := map[int64]int{}
	for seed := int64(0); seed < 4; seed++ {
		for shard := 0; shard < 16; shard++ {
			s := ShardSeed(seed, shard)
			if prev, dup := seen[s]; dup {
				t.Fatalf("ShardSeed collision: %d (also produced by case %d)", s, prev)
			}
			seen[s] = int(seed)<<8 | shard
		}
	}
	if ShardSeed(42, 3) != ShardSeed(42, 3) {
		t.Fatal("ShardSeed is not a pure function")
	}
}
