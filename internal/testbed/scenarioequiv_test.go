package testbed

import (
	"bytes"
	"fmt"
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
// figure5 spec they mirror: every prefix and address testbed.go declares
// that the spec also declares, one row each (the home agent's address
// twice: the router's home interface, and the mobile's home agent).
func TestFigure5SpecMatches(t *testing.T) {
	top := &MustScenario("figure5").Topology
	prefix := func(subnet string) string {
		for _, s := range top.Subnets {
			if s.Name == subnet {
				return s.Prefix
			}
		}
		return "no subnet " + subnet
	}
	routerOn := func(subnet string) string {
		for _, ifc := range top.Routers[0].Ifaces {
			if ifc.Subnet == subnet {
				return ifc.Addr
			}
		}
		return "no router iface on " + subnet
	}
	host := func(name string) string {
		for _, h := range top.Hosts {
			if h.Name == name {
				return h.Addr
			}
		}
		return "no host " + name
	}
	mh := &top.Mobiles[0]
	staticOn := func(subnet string) string {
		for _, ifc := range mh.Ifaces {
			if ifc.Attach == subnet && ifc.Static != nil {
				return ifc.Static.Addr
			}
		}
		return "no static iface on " + subnet
	}
	for _, c := range []struct {
		name, spec string
		want       fmt.Stringer
	}{
		{"HomePrefix", prefix("home"), HomePrefix},
		{"DeptPrefix", prefix("dept"), DeptPrefix},
		{"RadioPrefix", prefix("radio"), RadioPrefix},
		{"CampusPrefix", prefix("campus"), CampusPrefix},
		{"SlowPrefix", prefix("slow"), SlowPrefix},
		{"RouterHomeAddr", routerOn("home"), RouterHomeAddr},
		{"RouterHomeAddr as home agent", mh.HomeAgent, RouterHomeAddr},
		{"RouterDeptAddr", routerOn("dept"), RouterDeptAddr},
		{"RouterRadioAddr", routerOn("radio"), RouterRadioAddr},
		{"RouterSlowAddr", routerOn("slow"), RouterSlowAddr},
		{"MHHomeAddr", mh.HomeAddr, MHHomeAddr},
		{"MHRadioAddr", staticOn("radio"), MHRadioAddr},
		{"CHAddr", host("ch"), CHAddr},
		{"CampusCHAddr", host("campus-ch"), CampusCHAddr},
	} {
		if c.spec != c.want.String() {
			t.Errorf("%s = %s, but the figure5 spec says %s", c.name, c.want, c.spec)
		}
	}
}
