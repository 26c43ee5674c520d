package sim

import (
	"cmp"
	"fmt"
	"slices"
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
// RunUntil call, no worker wake, no barrier wait — and its clock is
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
	// BarrierWaits counts epochs the shard participated in: it ran up to
	// the epoch end and then waited at the closing barrier.
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
	// drained by the coordinator at the barrier; a worker's report on the
	// done channel orders the two.
	outbox [][]crossRecord
	merged []crossRecord // reused scratch for the barrier merge

	// due[w] lists the epoch's participating shards of share w (shard i
	// is in share i mod n, n the workers running the epochs). The
	// coordinator fills it before waking worker w, who only reads it.
	due [][]*Loop

	stats    []ShardStats
	lastExec []uint64 // per-shard Executed() at the last barrier credit

	// workerBusy[w] accumulates wall-clock time worker w spent running
	// shard epochs, slot 0 being the calling goroutine; utilization
	// observability for more than one worker only.
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
		due:       make([][]*Loop, len(shards)),
		stats:     make([]ShardStats, len(shards)),
		lastExec:  make([]uint64, len(shards)),
	}
	for i, sh := range shards {
		s.lastExec[i] = sh.Executed()
	}
	return s
}

// SetWorkers sets how many goroutines, the caller of RunUntil included,
// run an epoch's shards. Values below 1 (and 1 itself) select inline
// sequential execution. The choice affects wall-clock time only, never
// results.
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
// that worker spent executing shard epochs. Slot 0 is the goroutine that
// called RunUntil; slots 1 and up are the workers it started. It is empty
// until RunUntil has run on more than one worker. Wall-clock here is
// observability (utilization reporting), never simulation input.
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
	s.runEpochs(t, min(s.workers, len(s.shards)))
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

// runEpochs is the epoch loop on n workers. Shard i belongs to share
// i mod n. The calling goroutine runs the first share with participants;
// worker w, a goroutine that lives for this call, runs share w when it
// has participants too. An epoch with at most one such share wakes
// nobody, and n = 1 starts no goroutine.
func (s *ShardSet) runEpochs(t Time, n int) {
	var p *pool
	if n > 1 {
		p = s.startPool(n)
		defer p.stop() // on every way out, a barrier or shard panic included
	}
	for cur := s.now; cur < t; {
		end := s.nextEpochEnd(t)
		for w := range s.due[:n] {
			s.due[w] = s.due[w][:0]
			for i := w; i < len(s.shards); i += n {
				if s.active(i, end) {
					s.due[w] = append(s.due[w], s.shards[i])
				}
			}
		}
		own, woken := -1, 0
		for w, due := range s.due[:n] {
			if len(due) == 0 {
				continue
			}
			if own < 0 {
				own = w
				continue
			}
			p.wake[w] <- end
			woken++
		}
		if own >= 0 {
			s.runShare(own, 0, n, end)
		}
		for ; woken > 0; woken-- {
			if v := <-p.done; v != nil {
				panic(v) // p.stop joins the rest of the epoch first
			}
		}
		s.flush(end)
		s.credit()
		cur = end
		s.epochs++
	}
}

// runShare runs share w's participating shards to end on the calling
// goroutine. With more than one worker it charges the wall time to busy
// slot slot.
func (s *ShardSet) runShare(w, slot, n int, end Time) {
	var start time.Time
	if n > 1 {
		//lint:allow nowallclock worker-utilization accounting; wall time is reported, never fed back into the simulation
		start = time.Now()
	}
	for _, sh := range s.due[w] {
		sh.RunUntil(end)
	}
	if n > 1 {
		//lint:allow nowallclock see above
		s.workerBusy[slot] += time.Since(start)
	}
}

// pool is workers 1..n-1 of one runEpochs call; the caller is worker 0.
type pool struct {
	// wake[w] carries the epoch end to worker w. One slot: the epoch takes
	// w's report before it can wake w again.
	wake []chan Time
	// done takes one report per woken worker and epoch: nil, or the value
	// a shard event of its share panicked with.
	done chan any
	wg   sync.WaitGroup
}

func (s *ShardSet) startPool(n int) *pool {
	for len(s.workerBusy) < n {
		s.workerBusy = append(s.workerBusy, 0)
	}
	p := &pool{wake: make([]chan Time, n), done: make(chan any, n-1)}
	for w := 1; w < n; w++ {
		p.wake[w] = make(chan Time, 1)
		p.wg.Add(1)
		go func(w int) {
			defer p.wg.Done()
			for end := range p.wake[w] {
				p.done <- s.workShare(w, n, end)
			}
		}(w)
	}
	return p
}

// stop ends every worker and returns once they have exited.
func (p *pool) stop() {
	for _, c := range p.wake[1:] {
		close(c)
	}
	p.wg.Wait()
}

// workShare runs share w on worker w and returns the value a shard event
// panicked with, or nil. Nothing above a worker goroutine could recover a
// panic, so the coordinator re-raises it, and it leaves RunUntil once
// every worker has been joined.
func (s *ShardSet) workShare(w, n int, end Time) (failed any) {
	defer func() { failed = recover() }()
	s.runShare(w, w, n, end)
	return nil
}

// flush merges the epoch's buffered cross-shard work onto the destination
// loops in deterministic (arrival, source shard, post order) order, and
// verifies the lookahead contract. Each source's buffer is already in its
// own post order, so when one source posted, or several posted in order,
// the merge is a copy.
func (s *ShardSet) flush(end Time) {
	s.merged = s.merged[:0]
	for i := range s.outbox {
		s.merged = append(s.merged, s.outbox[i]...)
		s.outbox[i] = s.outbox[i][:0]
	}
	if len(s.merged) == 0 {
		return
	}
	if !slices.IsSortedFunc(s.merged, crossOrder) {
		slices.SortFunc(s.merged, crossOrder)
	}
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

// crossOrder is the barrier merge's total order: arrival time, then source
// shard, then post order within the source.
func crossOrder(a, b crossRecord) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	if c := cmp.Compare(a.src, b.src); c != 0 {
		return c
	}
	return cmp.Compare(a.idx, b.idx)
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
