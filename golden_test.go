package mosquitonet

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The golden files under testdata/golden were rendered from the datapath as
// it existed before it was built from hook chains, and the straight-line
// datapath that replaced the chains reproduces them too. They pin the
// behavior-preservation contract of every datapath refactor: the same seeds
// must replay the full
// mobility scenario — attach at home, cold switch or warm handoff to a
// visited subnet, echo traffic through the home agent, return home — to
// byte-identical trace JSONL and metrics snapshots, at workers=1 and
// workers=4 alike. Regenerate with `go test -run Golden -update-golden .`
// only when a deliberate behavior change is being made, and say why in the
// commit.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from the current datapath")

func goldenPath(name string) string { return filepath.Join("testdata", "golden", name) }

// checkGolden compares got with the named golden file, or rewrites it under
// -update-golden.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := goldenPath(name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run `go test -run Golden -update-golden .`): %v", path, err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("%s differs from pre-refactor golden (%d bytes vs %d):\n%s",
			name, len(want), len(got), firstDiffLine(want, got))
	}
}

// TestGoldenRoamingEquivalence replays the interleaved-Run roaming scenario
// and asserts its trace and metrics bytes match the pre-refactor golden.
func TestGoldenRoamingEquivalence(t *testing.T) {
	tr, ms := roamingArtifacts(t, 42)
	checkGolden(t, "roam_trace.jsonl", tr)
	checkGolden(t, "roam_metrics.json", ms)
}

// TestGoldenShardedEquivalence replays the pre-scheduled cold-roam and
// warm-handoff scenarios on a ShardSet at workers=1 and workers=4; every
// rendering must match the pre-refactor goldens byte for byte.
func TestGoldenShardedEquivalence(t *testing.T) {
	for _, workers := range []int{1, 4} {
		roam := scheduleMobilityScenario(t, 42, false)
		handoff := scheduleMobilityScenario(t, 43, true)
		ss := NewShardSet([]*Loop{roam.Loop, handoff.Loop}, 50*time.Millisecond)
		ss.SetWorkers(workers)
		ss.RunFor(35 * time.Second)
		for i, w := range []*World{roam, handoff} {
			name := []string{"shard_roam", "shard_handoff"}[i]
			var tr, ms bytes.Buffer
			if err := w.Tracer.WriteJSONL(&tr); err != nil {
				t.Fatal(err)
			}
			if err := w.Metrics.Snapshot().WriteJSON(&ms); err != nil {
				t.Fatal(err)
			}
			if workers == 1 && *updateGolden {
				checkGolden(t, name+"_trace.jsonl", tr.Bytes())
				checkGolden(t, name+"_metrics.json", ms.Bytes())
				continue
			}
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				checkGolden(t, name+"_trace.jsonl", tr.Bytes())
				checkGolden(t, name+"_metrics.json", ms.Bytes())
			})
		}
	}
}
