package testbed

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// renderArtifacts runs one driver and renders every file it exports.
func renderArtifacts(t *testing.T, run func() (Result, error)) map[string][]byte {
	t.Helper()
	res, err := run()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, a := range res.Artifacts() {
		var buf bytes.Buffer
		if err := a.Write(&buf); err != nil {
			t.Fatal(err)
		}
		out[a.Name] = buf.Bytes()
	}
	return out
}

// The spec-driven drivers are pinned byte-for-byte, every artifact they
// export: handoff, loadedhandoff and the n=8 sweep against the checked-in
// bench/ files, the 10/100-host scale tiers (workers 1 and 4) against the
// golden captured before the scenario refactor.
func TestScenarioCompileEquivalence(t *testing.T) {
	bench := filepath.Join("..", "..", "bench")
	golden := filepath.Join("..", "..", "testdata", "golden", "prerefactor")
	for _, tc := range []struct {
		name, dir string
		run       func() (Result, error)
	}{
		{"handoff", bench, func() (Result, error) { return RunHandoff(1996) }},
		{"loadedhandoff", bench, func() (Result, error) { return RunLoadedHandoff(1996) }},
		{"sweep", bench, func() (Result, error) { return RunSweep(1996, 8) }},
		{"scale-workers1", golden, func() (Result, error) { return RunScaleWorkers(1996, []int{10, 100}, 1) }},
		{"scale-workers4", golden, func() (Result, error) { return RunScaleWorkers(1996, []int{10, 100}, 4) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for name, got := range renderArtifacts(t, tc.run) {
				want, err := os.ReadFile(filepath.Join(tc.dir, name))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s diverged from %s (%d bytes vs %d)", name, tc.dir, len(got), len(want))
				}
			}
		})
	}
}

// Same seed, byte-identical artifacts, however many runs precede it in
// the process: every file each spec-driven driver exports.
func TestSameSeedByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func() (Result, error)
	}{
		{"handoff", func() (Result, error) { return RunHandoff(7) }},
		{"loadedhandoff", func() (Result, error) { return RunLoadedHandoff(7) }},
		{"faultdemo", func() (Result, error) { return RunScenarioProbe(7, MustScenario("faultdemo")) }},
		{"sweep", func() (Result, error) { return RunSweep(1996, 3) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first, second := renderArtifacts(t, tc.run), renderArtifacts(t, tc.run)
			for name := range first {
				if !bytes.Equal(first[name], second[name]) {
					t.Errorf("%s diverged between same-seed runs", name)
				}
			}
		})
	}
}

// The address variables experiment code uses must stay pinned to the
// figure5 spec they mirror.
func TestFigure5SpecMatches(t *testing.T) {
	spec := MustScenario("figure5")
	top := &spec.Topology
	wantPrefix := map[string]string{
		"home": HomePrefix.String(), "dept": DeptPrefix.String(),
		"radio": RadioPrefix.String(), "campus": CampusPrefix.String(), "slow": SlowPrefix.String(),
	}
	for i := range top.Subnets {
		s := &top.Subnets[i]
		if want, ok := wantPrefix[s.Name]; ok && s.Prefix != want {
			t.Errorf("subnet %s prefix = %s, want %s", s.Name, s.Prefix, want)
		}
	}
	if top.Mobiles[0].HomeAddr != MHHomeAddr.String() {
		t.Errorf("mobile home addr = %s, want %s", top.Mobiles[0].HomeAddr, MHHomeAddr)
	}
	if top.Mobiles[0].HomeAgent != RouterHomeAddr.String() {
		t.Errorf("mobile home agent = %s, want %s", top.Mobiles[0].HomeAgent, RouterHomeAddr)
	}
	var chFound bool
	for i := range top.Hosts {
		if top.Hosts[i].Name == "ch" {
			chFound = true
			if top.Hosts[i].Addr != CHAddr.String() {
				t.Errorf("ch addr = %s, want %s", top.Hosts[i].Addr, CHAddr)
			}
		}
	}
	if !chFound {
		t.Error("figure5 spec has no correspondent host \"ch\"")
	}
}
