package sim

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// This file implements deterministic shard-parallel execution: several
// independent Loops (shards) advance together in epochs bounded by a
// conservative lookahead, in the style of Chandy–Misra/null-message
// parallel discrete-event simulation and ns-3's distributed scheduler.
//
// The determinism argument, spelled out in DESIGN.md §7, rests on three
// properties:
//
//  1. Shards share no mutable state. Each shard owns its event heap, its
//     free list, and its RNG stream, so the order in which worker
//     goroutines happen to run shards cannot influence any shard's own
//     event order or random draws.
//
//  2. Within an epoch [T, T+L) no shard can affect another: every
//     cross-shard interaction travels over a link whose minimum
//     propagation delay is at least the lookahead L, so an event executed
//     at time t ∈ [T, T+L) produces cross-shard work arriving no earlier
//     than t+L ≥ T+L — beyond the epoch boundary every shard stops at.
//
//  3. Cross-shard work is buffered per source shard (appended in the
//     source's own deterministic execution order) and merged at the epoch
//     barrier in (arrival time, source shard, post order) order before
//     being scheduled on the destination loops. The merge is a sort of
//     per-source sequences whose contents and order are worker-independent,
//     so the destination's event sequence numbers — and therefore its
//     execution order — are too.
//
// The number of worker goroutines is pure mechanism: it changes which OS
// thread runs a shard, never what the shard computes. -workers=N is
// byte-identical to -workers=1 by construction.
//
// One scale mechanism sits on top of the epoch scheme (DESIGN.md §13),
// per-shard skipping: a shard participates in an epoch only if its next
// event falls at or before the epoch end; a quiet shard is skipped — no
// RunUntil call, no work item, no barrier wait — and its clock is
// synchronized once, when RunUntil returns. Skipping cannot change
// results: a skipped shard had nothing to execute inside the epoch, so
// running it would only have moved its clock.

// crossRecord is one buffered cross-shard callback.
type crossRecord struct {
	at   Time
	src  int
	idx  int // append order within the source shard's epoch buffer
	dest int
	fn   func()
}

// ShardStats counts one shard's barrier-level activity. The counters are
// observability only; nothing in the scheduler reads them back.
type ShardStats struct {
	// EpochsSkipped counts epochs the shard sat out because it had no
	// event inside the epoch window.
	EpochsSkipped uint64
	// BarrierWaits counts epochs the shard participated in — each one is
	// a dispatch to a worker and a wait at the closing barrier.
	BarrierWaits uint64
	// EventsDispatched counts events the shard executed under ShardSet
	// control (events run outside RunUntil are not credited).
	EventsDispatched uint64
}

// ShardSet coordinates several Loops advancing in lockstep epochs. All
// methods must be called from the coordinating goroutine; Post is the one
// exception — it is called from shard code while an epoch runs, and is
// safe because each source shard writes only its own buffer.
type ShardSet struct {
	shards    []*Loop
	lookahead time.Duration
	workers   int
	now       Time

	// outbox[i] buffers cross-shard work posted by shard i during the
	// current epoch. Written only by the goroutine running shard i,
	// drained by the coordinator at the barrier; the worker-pool
	// WaitGroup orders the two.
	outbox [][]crossRecord
	merged []crossRecord // reused scratch for the barrier merge

	stats    []ShardStats
	lastExec []uint64 // per-shard Executed() at the last barrier credit

	// workerBusy[w] accumulates wall-clock time worker w spent running
	// shard epochs; utilization observability for the parallel path only.
	workerBusy []time.Duration

	epochs    uint64
	crossSent uint64
}

// NewShardSet couples shards under a conservative lookahead: no event may
// cause an effect on another shard sooner than lookahead after it runs.
// The caller derives lookahead from the minimum cross-shard link latency
// (see link.Medium.MinLatency). All shards must start at the same virtual
// time (normally zero).
func NewShardSet(shards []*Loop, lookahead time.Duration) *ShardSet {
	if len(shards) == 0 {
		panic("sim: ShardSet with no shards")
	}
	if lookahead <= 0 {
		panic("sim: ShardSet lookahead must be positive")
	}
	for _, sh := range shards[1:] {
		if sh.Now() != shards[0].Now() {
			panic("sim: ShardSet shards disagree on the current time")
		}
	}
	s := &ShardSet{
		shards:    shards,
		lookahead: lookahead,
		workers:   1,
		now:       shards[0].Now(),
		outbox:    make([][]crossRecord, len(shards)),
		stats:     make([]ShardStats, len(shards)),
		lastExec:  make([]uint64, len(shards)),
	}
	for i, sh := range shards {
		s.lastExec[i] = sh.Executed()
	}
	return s
}

// SetWorkers sets the size of the goroutine pool used to run epochs.
// Values below 1 (and 1 itself) select inline sequential execution. The
// choice affects wall-clock time only, never results.
func (s *ShardSet) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	s.workers = n
}

// Workers returns the configured pool size.
func (s *ShardSet) Workers() int { return s.workers }

// Shards returns the coordinated loops in shard-index order.
func (s *ShardSet) Shards() []*Loop { return s.shards }

// Now returns the barrier time every shard has reached.
func (s *ShardSet) Now() Time { return s.now }

// Epochs returns the number of epoch barriers crossed.
func (s *ShardSet) Epochs() uint64 { return s.epochs }

// CrossDelivered returns the number of cross-shard callbacks merged.
func (s *ShardSet) CrossDelivered() uint64 { return s.crossSent }

// ShardStats returns shard i's barrier counters.
func (s *ShardSet) ShardStats(i int) ShardStats { return s.stats[i] }

// WorkerBusy returns, per worker slot, the accumulated wall-clock time
// that worker spent executing shard epochs. It is empty until the
// parallel path has run. Wall-clock here is observability (utilization
// reporting), never simulation input.
func (s *ShardSet) WorkerBusy() []time.Duration {
	return append([]time.Duration(nil), s.workerBusy...)
}

// SetGroups does nothing; it remains only because perf/fleet.go calls it.
func (s *ShardSet) SetGroups([][]int) {}

// Executed returns the total events run across all shards.
func (s *ShardSet) Executed() uint64 {
	var n uint64
	for _, sh := range s.shards {
		n += sh.Executed()
	}
	return n
}

// QueueHighWater returns the largest per-shard queue high-water mark.
func (s *ShardSet) QueueHighWater() int {
	max := 0
	for _, sh := range s.shards {
		if hw := sh.QueueHighWater(); hw > max {
			max = hw
		}
	}
	return max
}

// Post buffers fn to run on shard dest at time at. It must be called from
// code executing on shard src during an epoch (the trunk handoff path);
// at must be at least lookahead after the posting event's time, which the
// barrier verifies. Posting order within one source shard is preserved.
func (s *ShardSet) Post(src, dest int, at Time, fn func()) {
	if fn == nil {
		panic("sim: Post with nil callback")
	}
	buf := s.outbox[src]
	s.outbox[src] = append(buf, crossRecord{at: at, src: src, idx: len(buf), dest: dest, fn: fn})
}

// RunUntil advances every shard to exactly t, executing all events at or
// before t and exchanging cross-shard work at epoch barriers.
func (s *ShardSet) RunUntil(t Time) {
	if t < s.now {
		panic(fmt.Sprintf("sim: ShardSet.RunUntil into the past: now=%v t=%v", s.now, t))
	}
	for i, sh := range s.shards {
		s.lastExec[i] = sh.Executed()
	}
	if s.workers > 1 && len(s.shards) > 1 {
		s.runOnWorkers(t)
	} else {
		s.runEpochs(t, func(sh *Loop, end Time) { sh.RunUntil(end) }, func() {})
	}
	// Skipped shards' clocks lag behind the final barrier; synchronize
	// once so every loop agrees with the set on the current time.
	for _, sh := range s.shards {
		if sh.Now() < t {
			sh.AdvanceTo(t)
		}
	}
	s.now = t
}

// RunFor advances the shard set by d of virtual time.
func (s *ShardSet) RunFor(d time.Duration) { s.RunUntil(s.now.Add(d)) }

// nextEpochEnd picks the next barrier: the earliest pending event across
// all shards (idle gaps are skipped wholesale — with empty outboxes every
// future effect is already in some shard's heap) plus the lookahead,
// clamped to t. It returns t when no shard has work before t.
func (s *ShardSet) nextEpochEnd(t Time) Time {
	earliest := t
	for _, sh := range s.shards {
		if at, ok := sh.NextEventAt(); ok && at < earliest {
			earliest = at
		}
	}
	if end := earliest.Add(s.lookahead); end < t {
		return end
	}
	return t
}

// active reports whether shard i must run in an epoch ending at end, and
// updates its barrier counters: a shard participates exactly when its
// next event is at or before the epoch end.
func (s *ShardSet) active(i int, end Time) bool {
	if at, ok := s.shards[i].NextEventAt(); ok && at <= end {
		s.stats[i].BarrierWaits++
		return true
	}
	s.stats[i].EpochsSkipped++
	return false
}

// credit folds each shard's newly executed events into its stats after a
// barrier. Only shards that ran can have moved, so skipped shards cost a
// comparison.
func (s *ShardSet) credit() {
	for i, sh := range s.shards {
		if exec := sh.Executed(); exec != s.lastExec[i] {
			s.stats[i].EventsDispatched += exec - s.lastExec[i]
			s.lastExec[i] = exec
		}
	}
}

// runEpochs is the epoch loop. dispatch runs a participating shard up to
// the epoch end, inline or by handing it to a worker; await returns once
// every shard dispatched in the epoch has finished.
func (s *ShardSet) runEpochs(t Time, dispatch func(sh *Loop, end Time), await func()) {
	for cur := s.now; cur < t; {
		end := s.nextEpochEnd(t)
		for i, sh := range s.shards {
			if s.active(i, end) {
				dispatch(sh, end)
			}
		}
		await()
		s.flush(end)
		s.credit()
		cur = end
		s.epochs++
	}
}

// runOnWorkers runs the epoch loop with a pool of worker goroutines that
// lives for this call.
func (s *ShardSet) runOnWorkers(t Time) {
	n := s.workers
	if n > len(s.shards) {
		n = len(s.shards)
	}
	for len(s.workerBusy) < n {
		s.workerBusy = append(s.workerBusy, 0)
	}
	work := make(chan workItem)
	done := make(chan struct{}, len(s.shards))
	var wg sync.WaitGroup
	wg.Add(n)
	for w := 0; w < n; w++ {
		go func(w int) {
			defer wg.Done()
			for item := range work {
				//lint:allow nowallclock worker-utilization accounting; wall time is reported, never fed back into the simulation
				start := time.Now()
				item.loop.RunUntil(item.end)
				//lint:allow nowallclock see above
				s.workerBusy[w] += time.Since(start)
				done <- struct{}{}
			}
		}(w)
	}
	pending := 0
	s.runEpochs(t,
		func(sh *Loop, end Time) {
			pending++
			work <- workItem{loop: sh, end: end}
		},
		func() {
			for ; pending > 0; pending-- {
				<-done
			}
		})
	close(work)
	wg.Wait()
}

type workItem struct {
	loop *Loop
	end  Time
}

// flush merges the epoch's buffered cross-shard work onto the destination
// loops in deterministic (arrival, source shard, post order) order, and
// verifies the lookahead contract.
func (s *ShardSet) flush(end Time) {
	s.merged = s.merged[:0]
	for i := range s.outbox {
		s.merged = append(s.merged, s.outbox[i]...)
		s.outbox[i] = s.outbox[i][:0]
	}
	if len(s.merged) == 0 {
		return
	}
	sort.Slice(s.merged, func(i, j int) bool {
		a, b := s.merged[i], s.merged[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.src != b.src {
			return a.src < b.src
		}
		return a.idx < b.idx
	})
	for i := range s.merged {
		rec := &s.merged[i]
		if rec.at < end {
			panic(fmt.Sprintf(
				"sim: lookahead violation: shard %d posted work for shard %d at %v, before the epoch barrier %v; the cross-shard link latency is below the configured lookahead",
				rec.src, rec.dest, rec.at, end))
		}
		s.shards[rec.dest].At(rec.at, rec.fn)
		rec.fn = nil
		s.crossSent++
	}
}

// ShardSeed derives shard i's RNG seed from the world seed via a
// splitmix64 step, so per-shard random streams are decorrelated but fully
// determined by (seed, shard index) — independent of worker count and of
// every other shard.
func ShardSeed(seed int64, shard int) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(shard+1)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}
