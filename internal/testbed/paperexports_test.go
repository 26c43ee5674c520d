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
			"BENCH_e1.json": "3bcfbc883b9ee29916a092eafcba81eb1d64ea3f0293618f0919e21d6dadd90d"}},
		{"f6", func() (Result, error) { return RunF6(seed) }, map[string]string{
			"BENCH_f6.json": "ce7db3804988a9f11df9e1f0c1479f4ed9e835874a17a18fa00c686563cb96eb"}},
		{"f7", func() (Result, error) { return RunF7(seed) }, map[string]string{
			"BENCH_f7.json":           "899b58789425e3149fca497717c1f099d48497f5a7f558742a9b1d48bcb93a21",
			"BENCH_f7_timeline.jsonl": "9590726859724dd0d42b0b7c5291e3ff0454d02356404efa395a877bc9c7975c"}},
		{"rtt", func() (Result, error) { return RunRTT(seed, 20) }, map[string]string{
			"BENCH_rtt.json": "3f4f5e733e486671b0f13803016bb8eb11999cefa31177939c47994ad2058227"}},
		{"tput", func() (Result, error) { return RunThroughput(seed, 50, 1000) }, map[string]string{
			"BENCH_tput.json": "80d11c323c151956d16590f8be69ea2d4773a86cdaa56824c33135856e14326f"}},
		{"a1", func() (Result, error) { return RunA1(seed, 20) }, map[string]string{
			"BENCH_a1.json": "31e3791a96f05e46511d0ae49dc9c96c60be22a820ed5ab9164e97313a92a2ee"}},
		{"a2", func() (Result, error) { return RunA2(seed, 5) }, map[string]string{
			"BENCH_a2.json": "bb6c0598e71f977b927a6909542604a8d5b6f138678b205f3b43a55b5f31cb66"}},
		{"a3", func() (Result, error) { return RunA3(seed, []int{1, 8, 32, 64}) }, map[string]string{
			"BENCH_a3.json": "7a9bbfc0d67d4622a76f86fdc80bde94de18c1427beb4738b47783b095c52247"}},
		{"a4", func() (Result, error) { return RunA4(seed, 5) }, map[string]string{
			"BENCH_a4.json": "6518e501bc2ba891a68bfba12da2653c8101100a440e93fdbc36f442903cbe52"}},
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
