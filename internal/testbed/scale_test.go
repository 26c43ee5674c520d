package testbed

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mosquitonet/internal/sim"
)

// TestScaleShardCount pins the fleet-size → shard-count mapping: shard
// assignment is part of the deterministic output contract, so changing
// these thresholds is a results-affecting change.
func TestScaleShardCount(t *testing.T) {
	cases := map[int]int{
		1: 1, 10: 1, 15: 1, 16: 2, 63: 2, 64: 4, 255: 4, 256: 8, 1000: 8,
		1023: 8, 1024: 16, 10000: 16, 16383: 16, 16384: 32, 65535: 32,
		65536: 64, 100000: 64,
	}
	for n, want := range cases {
		if got := scaleShardCount(n); got != want {
			t.Errorf("scaleShardCount(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestEveryHostRoamsTwice: in every scale tier the last host starts in time to
// roam twice in the run, and tiers up to 10,000 hosts keep the spec's stagger.
func TestEveryHostRoamsTwice(t *testing.T) {
	for _, n := range scaleFleetSpec.Tiers {
		slot := scaleSlot(n)
		if second := time.Duration(n-1)*slot + scaleSwitchPeriod; second >= scaleDuration {
			t.Errorf("%d hosts: the last one roams the second time at %v, not before the run ends at %v", n, second, scaleDuration)
		}
		if n <= 10000 && slot != scaleStagger {
			t.Errorf("%d hosts start %v apart, want the spec's %v", n, slot, scaleStagger)
		}
	}
}

// TestOversizedFleetRefused: a fleet whose shards hold more hosts than a
// shard's /16 numbers is an error before anything is built — at 64 shards
// the largest is 3,264,000 hosts, 51,000 a shard.
func TestOversizedFleetRefused(t *testing.T) {
	if err := scaleFleetFits(64 * scaleAddrHosts); err != nil {
		t.Fatalf("the largest fleet that fits was refused: %v", err)
	}
	if err := scaleFleetFits(64*scaleAddrHosts + 1); err == nil {
		t.Fatal("a fleet one host past the limit was accepted")
	}
	if _, err := RunScaleWorkers(1996, []int{10, 3_300_000}, 1); err == nil {
		t.Fatal("RunScaleWorkers accepted a 3,300,000-host fleet")
	}
}

// TestScaleTwinReproduced: the 10- and 100-host fleets at seed 1996
// reproduce the first two rows and snapshots of bench/BENCH_scale.json, the
// checked-in twin of the scale export.
func TestScaleTwinReproduced(t *testing.T) {
	type entries struct {
		Snapshots []json.RawMessage `json:"snapshots"`
		Rows      []json.RawMessage `json:"rows"`
	}
	decode := func(b []byte) entries {
		t.Helper()
		var e entries
		if err := json.Unmarshal(b, &e); err != nil {
			t.Fatal(err)
		}
		return e
	}
	twin, err := os.ReadFile(filepath.Join("..", "..", "bench", "BENCH_scale.json"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunScaleWorkers(1996, []int{10, 100}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	want, got := decode(twin), decode(buf.Bytes())
	if len(want.Rows) < 2 || len(want.Snapshots) < 2 || len(got.Rows) != 2 || len(got.Snapshots) != 2 {
		t.Fatalf("twin has %d rows and %d snapshots, the run %d and %d", len(want.Rows), len(want.Snapshots), len(got.Rows), len(got.Snapshots))
	}
	for i := range 2 {
		for what, pair := range map[string][2]json.RawMessage{
			"row":      {want.Rows[i], got.Rows[i]},
			"snapshot": {want.Snapshots[i], got.Snapshots[i]},
		} {
			var w, g bytes.Buffer
			if json.Compact(&w, pair[0]) != nil || json.Compact(&g, pair[1]) != nil || !bytes.Equal(w.Bytes(), g.Bytes()) {
				t.Errorf("%s %d differs from the twin:\n  %.300s\n  %.300s", what, i, w.Bytes(), g.Bytes())
			}
		}
	}
}

// TestScaleWorkersByteIdentical is the engine's core guarantee on the real
// workload: the worker-pool size changes which goroutine executes a shard,
// never the results. Rows and metrics snapshots must match byte-for-byte.
func TestScaleWorkersByteIdentical(t *testing.T) {
	const n = 100
	baseRow, baseSnap, err := RunScaleFleetWorkers(1996, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if baseRow.ProbesEchoed == 0 || baseRow.CrossFrames == 0 {
		t.Fatalf("workload did not exercise cross-shard traffic: %+v", baseRow)
	}
	baseJSON, _ := json.Marshal(baseRow)
	var baseSnapJSON bytes.Buffer
	if err := baseSnap.WriteJSON(&baseSnapJSON); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		row, snap, err := RunScaleFleetWorkers(1996, n, workers)
		if err != nil {
			t.Fatal(err)
		}
		rowJSON, _ := json.Marshal(row)
		if !bytes.Equal(baseJSON, rowJSON) {
			t.Errorf("workers=%d row differs from workers=1:\n  %s\n  %s", workers, baseJSON, rowJSON)
		}
		var snapJSON bytes.Buffer
		if err := snap.WriteJSON(&snapJSON); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(baseSnapJSON.Bytes(), snapJSON.Bytes()) {
			t.Errorf("workers=%d metrics snapshot differs from workers=1", workers)
		}
	}
}

// runSilentCampusFleet runs a 64-host fleet whose last campus shard has
// infrastructure but no mobile hosts, and returns the deterministic
// outputs plus the shard set's barrier stats (read before release).
func runSilentCampusFleet(t *testing.T, workers int) (ScaleRow, []byte, []sim.ShardStats, uint64) {
	t.Helper()
	fl, err := buildScaleFleetSilent(1996, 64, workers, 1, scaleDuration)
	if err != nil {
		t.Fatal(err)
	}
	fl.ss.RunFor(scaleDuration)
	row := fl.row()
	var snapJSON bytes.Buffer
	if err := fl.snapshot().WriteJSON(&snapJSON); err != nil {
		t.Fatal(err)
	}
	stats := make([]sim.ShardStats, fl.numShards)
	for k := range stats {
		stats[k] = fl.ss.ShardStats(k)
	}
	return row, snapJSON.Bytes(), stats, fl.ss.Epochs()
}

// TestScaleSilentCampus pins per-shard skipping on the real topology: a
// campus shard with no mobile hosts must never participate in a barrier —
// zero waits, zero dispatched events, every epoch skipped — and its
// presence must not disturb byte-identical execution across worker counts.
func TestScaleSilentCampus(t *testing.T) {
	baseRow, baseSnap, baseStats, epochs := runSilentCampusFleet(t, 1)
	if baseRow.ProbesEchoed == 0 || baseRow.CrossFrames == 0 {
		t.Fatalf("workload did not exercise cross-shard traffic: %+v", baseRow)
	}

	// The silent campus is the last campus shard (index numFleet-1 = 2 at
	// 64 hosts: shards 0..3 campuses, 4 hub — silent one is index 3).
	silent := scaleShardCount(64) - 1
	st := baseStats[silent]
	if st.BarrierWaits != 0 || st.EventsDispatched != 0 {
		t.Errorf("silent campus shard %d participated: %+v", silent, st)
	}
	if st.EpochsSkipped != epochs {
		t.Errorf("silent campus skipped %d of %d epochs", st.EpochsSkipped, epochs)
	}
	// The active shards must have carried the whole fleet.
	for k := 0; k < silent; k++ {
		if baseStats[k].EventsDispatched == 0 {
			t.Errorf("active shard %d dispatched no events", k)
		}
	}

	for _, workers := range []int{4, 8} {
		row, snap, stats, _ := runSilentCampusFleet(t, workers)
		if row != baseRow {
			t.Errorf("workers=%d row differs from workers=1:\n  %+v\n  %+v", workers, baseRow, row)
		}
		if !bytes.Equal(baseSnap, snap) {
			t.Errorf("workers=%d metrics snapshot differs from workers=1", workers)
		}
		for k := range stats {
			if stats[k] != baseStats[k] {
				t.Errorf("workers=%d shard %d stats %+v, workers=1 %+v", workers, k, stats[k], baseStats[k])
			}
		}
	}
}
