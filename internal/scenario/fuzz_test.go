package scenario

import (
	"os"
	"reflect"
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
