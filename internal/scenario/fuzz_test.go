package scenario

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzScenarioParse pins the parser's two safety properties: it never
// panics on arbitrary input, and any input it accepts round-trips —
// Marshal of the parsed spec parses back to a DeepEqual spec, and the
// canonical form is a marshaling fixed point.
func FuzzScenarioParse(f *testing.F) {
	for _, file := range catalogFiles(f) {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(minimalSpec))
	f.Add([]byte(`{"version": 1, "name": "x", "topology": {"fleet": {"tiers": [10], "duration": "1s", "switch_period": "1s", "probe_interval": "100ms", "cross_every": 1, "router_delays": {}}}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[1, 2`))
	f.Add([]byte(`{"version": 1e99}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Parse(data)
		if err != nil {
			return
		}
		out, err := Marshal(spec)
		if err != nil {
			t.Fatalf("marshal of accepted spec failed: %v", err)
		}
		spec2, err := Parse(out)
		if err != nil {
			t.Fatalf("canonical form did not re-parse: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(spec, spec2) {
			t.Fatalf("spec changed across marshal/parse round trip:\n%s", out)
		}
		out2, err := Marshal(spec2)
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != string(out2) {
			t.Fatal("canonical form is not a marshaling fixed point")
		}
	})
}

// FuzzConsole holds the admin console to the rule for malformed input: a
// script loaded against the compiled faultdemo world is either refused with
// an error or walks the spec's itinerary and its three faults to the end
// (which may fail with an error) — it never panics or hangs.
// The seeds are the help text's lines, placeholders and all, and one
// concrete use of each command.
func FuzzConsole(f *testing.F) {
	data, err := os.ReadFile(filepath.Join(catalogDir, "faultdemo.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(adminHelp, "\n") {
		f.Add(line)
	}
	f.Add("help")
	f.Add("show hosts\nshow routes router\nshow bindings\nshow faults\nshow metrics")
	f.Add("add-route ch 10.9.0.0/16 36.8.0.1 eth0\ndel-route ch 10.9.0.0/16")
	f.Add("at 100ms fault link-flap r-net-36.8 500ms\nat 1s fault loss-burst dept 0.5 1s")
	f.Add("fault ha-crash router 1s\nat 1.5s fault agent-delay router 5ms 1s")

	f.Fuzz(func(t *testing.T, script string) {
		spec, err := Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		w, err := Compile(1, spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := NewConsole(w, io.Discard).Load(strings.NewReader(script)); err != nil {
			return
		}
		_, _ = w.Run() // an error is an outcome; a panic or a hang is the failure
	})
}
