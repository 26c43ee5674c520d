package metrics

import (
	"bytes"
	"testing"
	"time"

	"mosquitonet/internal/sim"
)

// runShardWorld drives a 3-shard world (one busy pair exchanging
// cross-shard posts, one silent shard) with per-shard registries and
// returns the merged snapshot rendered to bytes, plus the set.
func runShardWorld(t *testing.T, workers int) ([]byte, *sim.ShardSet) {
	t.Helper()
	const lookahead = 2 * time.Millisecond
	loops := []*sim.Loop{sim.New(sim.ShardSeed(9, 0)), sim.New(sim.ShardSeed(9, 1)), sim.New(sim.ShardSeed(9, 2))}
	regs := []*Registry{New(loops[0]), New(loops[1]), New(loops[2])}
	ss := sim.NewShardSet(loops, lookahead)
	ss.SetWorkers(workers)
	RegisterShardSet(ss, regs)

	var chatter func(k int)
	chatter = func(k int) {
		ss.Post(0, 1, loops[0].Now().Add(lookahead), func() {})
		if k < 5 {
			loops[0].Schedule(700*time.Microsecond, func() { chatter(k + 1) })
		}
	}
	loops[0].Schedule(0, func() { chatter(0) })
	ss.RunFor(20 * time.Millisecond)

	var buf bytes.Buffer
	if err := MergedSnapshotFiltered(ss.Now(), nil, regs...).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), ss
}

// TestShardMetricsMergeDeterministic pins the satellite contract: the
// sim.shard.* rows land in the merged snapshot with shard labels, the
// silent shard reports pure skips, and the rendered bytes are identical
// across worker counts.
func TestShardMetricsMergeDeterministic(t *testing.T) {
	base, ss := runShardWorld(t, 1)
	if st := ss.ShardStats(2); st.BarrierWaits != 0 || st.EpochsSkipped != ss.Epochs() {
		t.Fatalf("silent shard stats = %+v, epochs = %d", st, ss.Epochs())
	}
	for _, workers := range []int{2, 4} {
		got, _ := runShardWorld(t, workers)
		if !bytes.Equal(base, got) {
			t.Fatalf("merged snapshot differs between workers=1 and workers=%d", workers)
		}
	}
	check, _ := runShardWorld(t, 1)
	if !bytes.Equal(base, check) {
		t.Fatalf("identical runs rendered different snapshots")
	}
}

// TestRegisterShardSetRows checks each counter row directly.
func TestRegisterShardSetRows(t *testing.T) {
	const lookahead = time.Millisecond
	loops := []*sim.Loop{sim.New(1), sim.New(2)}
	regs := []*Registry{New(loops[0]), New(loops[1])}
	ss := sim.NewShardSet(loops, lookahead)
	RegisterShardSet(ss, regs)

	loops[0].Schedule(0, func() {})
	loops[0].Schedule(500*time.Microsecond, func() {})
	ss.RunFor(10 * time.Millisecond)

	s := MergedSnapshotFiltered(ss.Now(), nil, regs...)
	for k, want := range []sim.ShardStats{ss.ShardStats(0), ss.ShardStats(1)} {
		shard := L("shard", []string{"0", "1"}[k])
		if m := s.Get("sim.shard.epochs_skipped", shard); m == nil || *m.Counter != want.EpochsSkipped {
			t.Errorf("shard %d epochs_skipped row = %+v, want %d", k, m, want.EpochsSkipped)
		}
		if m := s.Get("sim.shard.barrier_waits", shard); m == nil || *m.Counter != want.BarrierWaits {
			t.Errorf("shard %d barrier_waits row = %+v, want %d", k, m, want.BarrierWaits)
		}
		if m := s.Get("sim.shard.events_dispatched", shard); m == nil || *m.Counter != want.EventsDispatched {
			t.Errorf("shard %d events_dispatched row = %+v, want %d", k, m, want.EventsDispatched)
		}
	}
	// Shard 1 never had work: all skips, no waits, no dispatches.
	st := ss.ShardStats(1)
	if st.BarrierWaits != 0 || st.EventsDispatched != 0 || st.EpochsSkipped != ss.Epochs() {
		t.Errorf("silent shard stats = %+v, epochs = %d", st, ss.Epochs())
	}
}
