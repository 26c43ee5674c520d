package testbed

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// The hand-written drivers' exports at seed 1996 and the command's default
// inputs — the ten `-exp all` files with no checked-in twin in bench/ —
// pinned by SHA-256. The table was generated from the tree before the
// drivers were moved onto lossAcross/World.Await; a driver or protocol
// refactor that shifts one RNG draw or one counter fails a named sub-test.
// Regenerate a row only with an explanation of what moved.
func TestPaperExportsPinned(t *testing.T) {
	const seed = 1996
	for _, tc := range []struct {
		name string
		run  func() (Result, error)
		want map[string]string
	}{
		{"e1", func() (Result, error) { return RunE1(seed) }, map[string]string{
			"BENCH_e1.json": "a0c54cdcf01dee33e4ba0b984f8e6a66b75feb4f6305e0bd73049abf1cf7359a"}},
		{"f6", func() (Result, error) { return RunF6(seed) }, map[string]string{
			"BENCH_f6.json": "655ffd9b3b36ba1b90662d2e6e894139e4b62861b2db59dde591084a8c362e7c"}},
		{"f7", func() (Result, error) { return RunF7(seed) }, map[string]string{
			"BENCH_f7.json":           "7fcb7309b1cba6b48790240f955de7047df50f9206ec273012c9723ba4d244a5",
			"BENCH_f7_timeline.jsonl": "9590726859724dd0d42b0b7c5291e3ff0454d02356404efa395a877bc9c7975c"}},
		{"rtt", func() (Result, error) { return RunRTT(seed, 20) }, map[string]string{
			"BENCH_rtt.json": "2145af8f4fe22a81ab29b7dfac671537924c141027490c0e603beb25b6bee720"}},
		{"tput", func() (Result, error) { return RunThroughput(seed, 50, 1000) }, map[string]string{
			"BENCH_tput.json": "7d5c4c59fb81f5ce8fa6b87818c1c8cf37e82f4977b3e7a7eec3cd070ccd209b"}},
		{"a1", func() (Result, error) { return RunA1(seed, 20) }, map[string]string{
			"BENCH_a1.json": "d5384b394d6f3e28f0d509c5ef946292880eaa98218ff0238f6ef835533f9510"}},
		{"a2", func() (Result, error) { return RunA2(seed, 5) }, map[string]string{
			"BENCH_a2.json": "ad9ba5b2fe8e1af282c894f4abb9e529684a4b252f2c1ed12f3f04d38151dc58"}},
		{"a3", func() (Result, error) { return RunA3(seed, []int{1, 8, 32, 64}) }, map[string]string{
			"BENCH_a3.json": "bec1e6aa94f3629a4644246352ed49bf3507ea7c0472d848ce4b649f6f13992f"}},
		{"a4", func() (Result, error) { return RunA4(seed, 5) }, map[string]string{
			"BENCH_a4.json": "e9e496b0ef1607a26314e09ff678c7947f250ef8753e59f107740bed2ca89f8b"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := renderArtifacts(t, tc.run)
			if len(got) != len(tc.want) {
				t.Errorf("exports %d artifacts, table pins %d", len(got), len(tc.want))
			}
			for name, want := range tc.want {
				sum := sha256.Sum256(got[name])
				if h := hex.EncodeToString(sum[:]); h != want {
					t.Errorf("%s: sha256 %s, pinned %s", name, h, want)
				}
			}
		})
	}
}
