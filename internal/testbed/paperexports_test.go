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
			"BENCH_e1.json": "c6b42666d7ca740518e59f70e9e0e9c2e2c42801568834de8c37895b25c97373"}},
		{"f6", func() (Result, error) { return RunF6(seed) }, map[string]string{
			"BENCH_f6.json": "eb9f94082216d334dc45340c2c7e16545a95a1391d3486fff1dc509f77c1fb34"}},
		{"f7", func() (Result, error) { return RunF7(seed) }, map[string]string{
			"BENCH_f7.json":           "7fcb7309b1cba6b48790240f955de7047df50f9206ec273012c9723ba4d244a5",
			"BENCH_f7_timeline.jsonl": "9590726859724dd0d42b0b7c5291e3ff0454d02356404efa395a877bc9c7975c"}},
		{"rtt", func() (Result, error) { return RunRTT(seed, 20) }, map[string]string{
			"BENCH_rtt.json": "2145af8f4fe22a81ab29b7dfac671537924c141027490c0e603beb25b6bee720"}},
		{"tput", func() (Result, error) { return RunThroughput(seed, 50, 1000) }, map[string]string{
			"BENCH_tput.json": "0e24d418ae2ed574453375c1d849ba68332c30c914032ae67247f6381d8abec9"}},
		{"a1", func() (Result, error) { return RunA1(seed, 20) }, map[string]string{
			"BENCH_a1.json": "ae1eebdcb11b7b3a2b8e2a4addfad8b65f2077be5f16ab9f47a4b7d7ef5f20f3"}},
		{"a2", func() (Result, error) { return RunA2(seed, 5) }, map[string]string{
			"BENCH_a2.json": "b9dc20cf4929126e62b38c0d50c69e8b85876ccfe952f33413ae2a4452cd4029"}},
		{"a3", func() (Result, error) { return RunA3(seed, []int{1, 8, 32, 64}) }, map[string]string{
			"BENCH_a3.json": "bec1e6aa94f3629a4644246352ed49bf3507ea7c0472d848ce4b649f6f13992f"}},
		{"a4", func() (Result, error) { return RunA4(seed, 5) }, map[string]string{
			"BENCH_a4.json": "aadc51b71aa93e3c94888ebda4230a2224f0e4f8e615b94b4f8f518598c157eb"}},
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
