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
			"BENCH_e1.json": "a8020eb5c93731ba501c9f48bc61b1300cf93bdf3d0de12f251e9250b2fab9d7"}},
		{"f6", func() (Result, error) { return RunF6(seed) }, map[string]string{
			"BENCH_f6.json": "dd98c88a0c1a3114b8c4aece769fef99876ecaf05014357abb852f8c0887b66d"}},
		{"f7", func() (Result, error) { return RunF7(seed) }, map[string]string{
			"BENCH_f7.json":           "38f851e8bbffaddebf60c84faa38e8cf3e69f22aadec981501d229220ad725fb",
			"BENCH_f7_timeline.jsonl": "9590726859724dd0d42b0b7c5291e3ff0454d02356404efa395a877bc9c7975c"}},
		{"rtt", func() (Result, error) { return RunRTT(seed, 20) }, map[string]string{
			"BENCH_rtt.json": "b51128bb0274db53e0a86ceef30f53f94286c4f4c7c1779643ed67b1cac2b18e"}},
		{"tput", func() (Result, error) { return RunThroughput(seed, 50, 1000) }, map[string]string{
			"BENCH_tput.json": "0ac90c1d2cc9bf347c659ae30fc169511a2d36d84985a683a355b2fd9277b15b"}},
		{"a1", func() (Result, error) { return RunA1(seed, 20) }, map[string]string{
			"BENCH_a1.json": "b55d3dd3698700a33dc6806b7e4592b954225ccefc6f155c6732804e7fe30138"}},
		{"a2", func() (Result, error) { return RunA2(seed, 5) }, map[string]string{
			"BENCH_a2.json": "14dd719d8ae09aa51c7eac5440697e2bd6c837091dd464c7c2c4ce1fa46a052b"}},
		{"a3", func() (Result, error) { return RunA3(seed, []int{1, 8, 32, 64}) }, map[string]string{
			"BENCH_a3.json": "11215278696e0b895fe6cf2791db46e4400fc195932435d502491c0d95c2e6e3"}},
		{"a4", func() (Result, error) { return RunA4(seed, 5) }, map[string]string{
			"BENCH_a4.json": "15428c4b8f5526591f11f11d221356a4ea15474ff076805182a2b9529f9537f0"}},
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
