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
			"BENCH_e1.json": "5e8750df479d0dba9c3965b8ec2bdf395b6896ea11de39bfb733cd8549a24e45"}},
		{"f6", func() (Result, error) { return RunF6(seed) }, map[string]string{
			"BENCH_f6.json": "6fd5db81819b4fe6c113fd7c0b2a41a07fd8195a3738e679ad8db6bceefe6943"}},
		{"f7", func() (Result, error) { return RunF7(seed) }, map[string]string{
			"BENCH_f7.json":           "9e68a0b6d1f10f00fb3e2312ba167c6b825cf85f9362f9fea8ce75cee431647d",
			"BENCH_f7_timeline.jsonl": "9590726859724dd0d42b0b7c5291e3ff0454d02356404efa395a877bc9c7975c"}},
		{"rtt", func() (Result, error) { return RunRTT(seed, 20) }, map[string]string{
			"BENCH_rtt.json": "d9f2e48eeb9f49734c90dbb014222da09e56b03c38a1546013f4962fd2b266f0"}},
		{"tput", func() (Result, error) { return RunThroughput(seed, 50, 1000) }, map[string]string{
			"BENCH_tput.json": "c946d5e7e936761c241db4c01a8c9bdad0415687a29dac6b5f15a5e6d5289ede"}},
		{"a1", func() (Result, error) { return RunA1(seed, 20) }, map[string]string{
			"BENCH_a1.json": "6d7ba4489f7007e8d20356a4731b2e2fb3cf09c97a409fd0f8ee33d3cb6e666a"}},
		{"a2", func() (Result, error) { return RunA2(seed, 5) }, map[string]string{
			"BENCH_a2.json": "2d7c50050a47a01f29b1290f5df5c03aa1058d877e58c8dd5c24da4d2586b3be"}},
		{"a3", func() (Result, error) { return RunA3(seed, []int{1, 8, 32, 64}) }, map[string]string{
			"BENCH_a3.json": "23a6e17bc1b72512728e3742a18ee6913b09823175913c72688eb78eb2f5cdf9"}},
		{"a4", func() (Result, error) { return RunA4(seed, 5) }, map[string]string{
			"BENCH_a4.json": "49e4292658e58a969fc3f3c3652b36e2959460aec37167a8e50a611e30695b62"}},
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
