package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mosquitonet/internal/app"
)

// catalogDir is the checked-in scenario catalog (embedded by the testbed
// package; read from disk here to avoid an import cycle).
var catalogDir = filepath.Join("..", "testbed", "testdata", "scenarios")

func catalogFiles(t testing.TB) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(catalogDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatalf("no scenario files in %s", catalogDir)
	}
	return files
}

// minimalSpec is the smallest spec that passes Validate.
const minimalSpec = `{
  "version": 1,
  "name": "minimal",
  "topology": {
    "subnets": [
      {"name": "home", "prefix": "36.135.0.0/16", "medium": {"kind": "ethernet"}}
    ]
  }
}`

func TestParseCatalog(t *testing.T) {
	for _, f := range catalogFiles(t) {
		t.Run(filepath.Base(f), func(t *testing.T) {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := Parse(data)
			if err != nil {
				t.Fatal(err)
			}
			// Canonical form round-trips to an identical spec and
			// identical bytes.
			out, err := Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			spec2, err := Parse(out)
			if err != nil {
				t.Fatalf("re-parse of marshaled form: %v", err)
			}
			if !reflect.DeepEqual(spec, spec2) {
				t.Error("spec changed across a marshal/parse round trip")
			}
			out2, err := Marshal(spec2)
			if err != nil {
				t.Fatal(err)
			}
			if string(out) != string(out2) {
				t.Error("marshaled form is not a fixed point")
			}
		})
	}
}

func TestParseStrictness(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"unknown field", `{"version": 1, "name": "x", "topolgy": {}}`, "topolgy"},
		{"trailing data", minimalSpec + `{"again": true}`, "trailing data"},
		{"bad version", `{"version": 2, "name": "x", "topology": {}}`, "version 2 not supported"},
		{"missing name", `{"version": 1, "topology": {}}`, "missing name"},
		{"duration not string", `{"version": 1, "name": "x", "topology": {"fleet": {"duration": 5}}}`, "duration must be a string"},
		{"not json", `nope`, "invalid character"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.in))
			if err == nil {
				t.Fatal("parse accepted an invalid spec")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// mutate parses minimalSpec, applies f, and returns Validate's error.
func validateMutated(t *testing.T, f func(*Spec)) error {
	t.Helper()
	spec, err := Parse([]byte(minimalSpec))
	if err != nil {
		t.Fatal(err)
	}
	f(spec)
	return Validate(spec)
}

func TestValidateReferences(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantErr string
	}{
		{"empty topology", func(s *Spec) { s.Topology = Topology{} }, "empty topology"},
		{"duplicate subnet", func(s *Spec) {
			s.Topology.Subnets = append(s.Topology.Subnets, s.Topology.Subnets[0])
		}, "duplicate name"},
		{"bad medium", func(s *Spec) { s.Topology.Subnets[0].Medium.Kind = "carrier-pigeon" }, "unknown medium kind"},
		{"medium params without custom", func(s *Spec) { s.Topology.Subnets[0].Medium.MTU = 1500 },
			`only valid with kind "custom"`},
		{"host outside subnet", func(s *Spec) {
			s.Topology.Hosts = []EndHost{{Name: "h", Subnet: "home", Addr: "10.0.0.1", Gateway: "36.135.0.1"}}
		}, "not in subnet"},
		{"host on unknown subnet", func(s *Spec) {
			s.Topology.Hosts = []EndHost{{Name: "h", Subnet: "dept", Addr: "36.8.0.2", Gateway: "36.8.0.1"}}
		}, `unknown subnet "dept"`},
		{"mobile without home agent", func(s *Spec) {
			s.Topology.Mobiles = []Mobile{{
				Name: "mh", HomeAddr: "36.135.0.7", HomeSubnet: "home", HomeAgent: "36.135.0.1",
				Ifaces: []MobileIface{{Name: "eth0", Device: "mh-eth", Attach: "home"}},
			}}
		}, "no home agent at 36.135.0.1"},
		{"probe on unknown host", func(s *Spec) {
			s.Traffic = &Traffic{Probes: []Probe{{
				Name: "p", From: "nobody", To: "nobody", Dst: "36.135.0.7", Port: 9, Interval: Duration(time.Second),
			}}}
		}, `unknown host "nobody"`},
		{"step with unknown op", func(s *Spec) {
			s.Itinerary = []Step{{Op: "teleport"}}
		}, `unknown op "teleport"`},
		{"fault with unknown kind", func(s *Spec) {
			s.Faults = []Fault{{Kind: "meteor", For: Duration(time.Second)}}
		}, `unknown kind "meteor"`},
		{"fault on unknown device", func(s *Spec) {
			s.Faults = []Fault{{Kind: "link-flap", For: Duration(time.Second), Device: "r-net-none"}}
		}, `unknown device "r-net-none"`},
		{"base with topology", func(s *Spec) { s.Base = "figure5" }, "topology is not empty"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateMutated(t, tc.mutate)
			if err == nil {
				t.Fatal("validate accepted an invalid spec")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// resolveLoaded resolves the loadedhandoff catalog spec after mutate has
// edited it.
func resolveLoaded(t *testing.T, mutate func(*Spec)) error {
	t.Helper()
	load := func(name string) (*Spec, error) {
		data, err := os.ReadFile(filepath.Join(catalogDir, name+".json"))
		if err != nil {
			return nil, err
		}
		return Parse(data)
	}
	spec, err := load("loadedhandoff")
	if err != nil {
		t.Fatal(err)
	}
	mutate(spec)
	_, err = ResolveBase(spec, load)
	return err
}

// TestValidateRefusesWildcardPublications: in the loadedhandoff spec, a
// publication topic with a + or # wildcard is an error naming the
// publication, not a flow whose every publish Client.Publish refuses.
func TestValidateRefusesWildcardPublications(t *testing.T) {
	for _, topic := range []string{"telemetry/+/0", "telemetry/#"} {
		t.Run(topic, func(t *testing.T) {
			err := resolveLoaded(t, func(s *Spec) { s.Traffic.MQTT.Pubs[0].Topic = topic })
			if err == nil {
				t.Fatal("validate accepted a wildcard publication topic")
			}
			if want := "publication 0"; !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), topic) {
				t.Errorf("error %q does not name %s and its topic %q", err, want, topic)
			}
		})
	}
}

// TestValidateRefusesTrafficOnARouter: every traffic role — probe source
// and sink, MQTT broker and client, HTTP server and flow — runs on an end
// host or a mobile. A router has no transport the runner drives, so placing
// a role on one is an error naming the role and the router, refused before
// anything runs rather than after the first itinerary step.
func TestValidateRefusesTrafficOnARouter(t *testing.T) {
	probe := func(from, to string) func(*Spec) {
		return func(s *Spec) {
			s.Traffic.Probes = []Probe{{Name: "p", From: from, To: to, Dst: "36.135.0.7", Port: 9, Interval: Duration(time.Second)}}
		}
	}
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantErr string // empty: valid
	}{
		{"as shipped, plus a probe", probe("ch", "mh"), ""},
		{"probe source", probe("router", "mh"), `probe "p": host "router" is a router`},
		{"probe sink", probe("ch", "router"), `probe "p": host "router" is a router`},
		{"mqtt broker", func(s *Spec) { s.Traffic.MQTT.Broker.Host = "router" }, `mqtt broker: host "router" is a router`},
		{"mqtt client", func(s *Spec) { s.Traffic.MQTT.Clients[1].Host = "router" }, `mqtt: client "campus-agent": host "router" is a router`},
		{"http server", func(s *Spec) { s.Traffic.HTTP.Server.Host = "router" }, `http server: host "router" is a router`},
		{"http flow", func(s *Spec) { s.Traffic.HTTP.Flows[1].Host = "router" }, `http: flow "http/closed": host "router" is a router`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := resolveLoaded(t, c.mutate)
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatalf("valid spec refused: %v", err)
			case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
				t.Fatalf("error %v, want one containing %q", err, c.wantErr)
			}
		})
	}
}

// TestValidateRefusesSharedTopics: two publications on one topic would each
// deliver to both subscribers, so every flow counts the other's messages as
// duplicates. The error names both publications.
func TestValidateRefusesSharedTopics(t *testing.T) {
	err := resolveLoaded(t, func(s *Spec) { s.Traffic.MQTT.Pubs[1].Topic = s.Traffic.MQTT.Pubs[0].Topic })
	if want := `publications 0 and 1 share topic "telemetry/mh/0"`; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("error %v, want one containing %q", err, want)
	}
}

// TestValidateRefusesOversizedBodies: a publication or request body larger
// than the peer's parser accepts is an error naming the publication or flow,
// not a run that waits for flows that never drain. The largest body each
// carries is valid.
func TestValidateRefusesOversizedBodies(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantErr string // empty: valid
	}{
		{"largest publish", func(s *Spec) { s.Traffic.MQTT.Pubs[0].Size = app.MaxPublishPayload("telemetry/mh/0") }, ""},
		{"publish over a frame", func(s *Spec) { s.Traffic.MQTT.Pubs[0].Size = 40000 }, `publication "telemetry/mh/0": size 40000`},
		{"publish over a uint16", func(s *Spec) { s.Traffic.MQTT.Pubs[0].Size = 70000 }, `publication "telemetry/mh/0": size 70000`},
		{"largest request", func(s *Spec) { s.Traffic.HTTP.Flows[0].Size = app.MaxHTTPBody }, ""},
		{"request over a frame", func(s *Spec) { s.Traffic.HTTP.Flows[0].Size = 40000 }, `flow "http/open": size 40000`},
		{"request over a uint16", func(s *Spec) { s.Traffic.HTTP.Flows[0].Size = 70000 }, `flow "http/open": size 70000`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := resolveLoaded(t, c.mutate)
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatalf("valid spec refused: %v", err)
			case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
				t.Fatalf("error %v, want one containing %q", err, c.wantErr)
			}
		})
	}
}

// TestValidateDHCPPool: a pool may not cover an address the spec gives
// someone else on its subnet, and the first such party in spec order is
// the one named.
func TestValidateDHCPPool(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantErr string // empty: valid
	}{
		{"hosts outside the pool", func(s *Spec) {}, ""},
		{"an end host", func(s *Spec) { s.Topology.Hosts[0].Addr = "36.135.0.150" }, `dhcp pool 36.135.0.100-36.135.0.150 would lease 36.135.0.150, host "ch"'s address`},
		{"a home address", func(s *Spec) { s.Topology.Mobiles[0].HomeAddr = "36.135.0.120" }, `would lease 36.135.0.120, mobile "mh"'s home address`},
		{"a static address", func(s *Spec) { s.Topology.Mobiles[0].Ifaces[0].Static.Addr = "36.135.0.101" }, `would lease 36.135.0.101, mobile "mh"'s static address on "eth0"`},
		{"first party in spec order", func(s *Spec) {
			s.Topology.Hosts[0].Addr = "36.135.0.150"
			s.Topology.Mobiles[0].HomeAddr = "36.135.0.120"
		}, `host "ch"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateMutated(t, func(s *Spec) {
				s.Topology.Routers = []Router{{
					Name:      "r",
					Ifaces:    []RouterIface{{Subnet: "home", Addr: "36.135.0.1"}},
					HomeAgent: &HomeAgentSpec{Subnet: "home"},
					DHCP:      &DHCPSpec{Subnet: "home", FirstHost: 100, LastHost: 150},
				}}
				s.Topology.Hosts = []EndHost{{Name: "ch", Subnet: "home", Addr: "36.135.0.99", Gateway: "36.135.0.1"}}
				s.Topology.Mobiles = []Mobile{{
					Name: "mh", HomeAddr: "36.135.0.7", HomeSubnet: "home", HomeAgent: "36.135.0.1",
					Ifaces: []MobileIface{{Name: "eth0", Device: "mh-eth", Attach: "home",
						Static: &StaticAddr{Addr: "36.135.0.8", Gateway: "36.135.0.1"}}},
				}}
				tc.mutate(s)
			})
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("valid pool refused: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("err = %v, want one mentioning %q", err, tc.wantErr)
			}
		})
	}
}

// Validation errors must be deterministic: same spec, same first-failing
// field, same text.
func TestValidateDeterministicErrors(t *testing.T) {
	bad := strings.Replace(minimalSpec, `"kind": "ethernet"`, `"kind": "x"`, 1)
	_, err1 := Parse([]byte(bad))
	_, err2 := Parse([]byte(bad))
	if err1 == nil || err2 == nil {
		t.Fatal("expected errors")
	}
	if err1.Error() != err2.Error() {
		t.Errorf("error text diverged:\n  %v\n  %v", err1, err2)
	}
}

func TestResolveBase(t *testing.T) {
	base, err := Parse([]byte(minimalSpec))
	if err != nil {
		t.Fatal(err)
	}
	child, err := Parse([]byte(`{"version": 1, "name": "child", "base": "minimal"}`))
	if err != nil {
		t.Fatal(err)
	}
	lookup := func(name string) (*Spec, error) {
		if name != "minimal" {
			t.Fatalf("lookup of %q", name)
		}
		return base, nil
	}
	resolved, err := ResolveBase(child, lookup)
	if err != nil {
		t.Fatal(err)
	}
	if resolved.Base != "" || !reflect.DeepEqual(resolved.Topology, base.Topology) {
		t.Error("resolved spec did not inherit the base topology")
	}
	if resolved.Name != "child" {
		t.Errorf("resolved name = %q, want child", resolved.Name)
	}
	// A base must itself be base-free.
	child2 := *child
	basey := *base
	basey.Base = "deeper"
	if _, err := ResolveBase(&child2, func(string) (*Spec, error) { return &basey, nil }); err == nil {
		t.Error("ResolveBase accepted a base that itself has a base")
	}
	// A base-free spec passes through untouched.
	same, err := ResolveBase(base, nil)
	if err != nil || same != base {
		t.Error("base-free spec was not returned unchanged")
	}
}

func TestDurationJSON(t *testing.T) {
	for _, d := range []time.Duration{0, 50 * time.Millisecond, 1210 * time.Microsecond, 3 * time.Second} {
		b, err := json.Marshal(Duration(d))
		if err != nil {
			t.Fatal(err)
		}
		var got Duration
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		if got.D() != d {
			t.Errorf("%v round-tripped to %v via %s", d, got, b)
		}
	}
	var d Duration
	if err := json.Unmarshal([]byte(`250`), &d); err == nil {
		t.Error("numeric duration accepted")
	}
	if err := json.Unmarshal([]byte(`"fast"`), &d); err == nil {
		t.Error("non-duration string accepted")
	}
}

// Compiling a parsed catalog scenario produces a world whose hosts match
// the spec's topology.
func TestCompileFaultdemo(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(catalogDir, "faultdemo.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Compile(1, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"router", "ch", "mh"} {
		if _, ok := w.Host(name); !ok {
			t.Errorf("compiled world has no host %q (have %v)", name, w.HostNames())
		}
	}
	if _, ok := w.HAs["router"]; !ok {
		t.Error("compiled world has no home agent on router")
	}
	if err := w.Faults.Schedule(Fault{Kind: "ha-crash", For: Duration(time.Second), Router: "ghost"}); err == nil {
		t.Error("injector accepted a fault on an unknown router")
	}
}

// Run's contract on the faultdemo spec: the one probe flow and every
// handoff and fault window in start order; a spec with no itinerary is an
// error, never a panic.
func TestRunFaultdemo(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(catalogDir, "faultdemo.json"))
	if err != nil {
		t.Fatal(err)
	}
	run := func(mutate func(*Spec)) (*RunResult, error) {
		spec, err := Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		mutate(spec)
		w, err := Compile(1996, spec)
		if err != nil {
			t.Fatal(err)
		}
		return w.Run()
	}

	res, err := run(func(*Spec) {})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 1 || res.Flows[0].Proto != "udp" || res.Flows[0].Interval != 50*time.Millisecond {
		t.Fatalf("flows = %+v, want the spec's one 50ms probe", res.Flows)
	}
	if sent, received, _, _ := res.Flows[0].Tracker.Totals(); sent == 0 || received == 0 {
		t.Errorf("probe did not run: sent=%d received=%d", sent, received)
	}
	var kinds []string
	for i, w := range res.Windows {
		kinds = append(kinds, w.Kind)
		if i > 0 && w.Start < res.Windows[i-1].Start {
			t.Errorf("windows out of start order at %d: %+v", i, res.Windows)
		}
	}
	want := []string{"handoff.home", "handoff.cold", KindFaultHACrash, KindFaultLossBurst, KindFaultLinkFlap}
	if !reflect.DeepEqual(kinds, want) {
		t.Errorf("window kinds = %v, want %v", kinds, want)
	}
	if len(res.Faults) != 3 {
		t.Errorf("fault records = %d, want 3", len(res.Faults))
	}

	if _, err := run(func(s *Spec) { s.Itinerary = nil }); err == nil {
		t.Error("a spec with no itinerary ran")
	}
}

// TestValidateDurations: a registration lifetime the request's 16-bit
// seconds field cannot carry exactly, and a negative topology duration, are
// refused. The first reached the home agent truncated — 500ms and 18h12m16s
// both as 0 s, a deregistration — and the second ran as zero.
func TestValidateDurations(t *testing.T) {
	sec := Duration(time.Second)
	mobile := func(f func(*Mobile)) func(*Spec) {
		return func(s *Spec) { f(&s.Topology.Mobiles[0]) }
	}
	fleet := func(f func(*Fleet)) func(*Spec) {
		return func(s *Spec) { f(s.Topology.Fleet) }
	}
	cases := []struct {
		name, spec string
		mutate     func(*Spec)
		wantErr    string // empty: valid
	}{
		{"default lifetime", "figure5", mobile(func(m *Mobile) { m.Lifetime = 0 }), ""},
		{"shortest lifetime", "figure5", mobile(func(m *Mobile) { m.Lifetime = sec }), ""},
		{"longest lifetime", "figure5", mobile(func(m *Mobile) { m.Lifetime = 65535 * sec }), ""},
		{"half a second", "figure5", mobile(func(m *Mobile) { m.Lifetime = sec / 2 }), `mobile "mh": lifetime 500ms is not a whole number of seconds in [1s, 65535s]`},
		{"a second and a half", "figure5", mobile(func(m *Mobile) { m.Lifetime = 3 * sec / 2 }), "lifetime 1.5s is not"},
		{"one second too long", "figure5", mobile(func(m *Mobile) { m.Lifetime = 65536 * sec }), "lifetime 18h12m16s is not"},
		{"negative lifetime", "figure5", mobile(func(m *Mobile) { m.Lifetime = -sec }), "lifetime -1s is not"},
		{"router delay", "figure5", func(s *Spec) { s.Topology.Routers[0].Delays.Forward = -1 }, `router "router": negative delays forward -1ns`},
		{"home agent processing", "figure5", func(s *Spec) { s.Topology.Routers[0].HomeAgent.Processing = -sec }, "negative home_agent processing -1s"},
		{"dhcp processing", "figure5", func(s *Spec) { s.Topology.Routers[0].DHCP.Processing = -sec }, "negative dhcp processing -1s"},
		{"host delay", "figure5", func(s *Spec) { s.Topology.Hosts[0].Delay = -sec }, `host "ch": negative delay -1s`},
		{"mobile delay", "figure5", mobile(func(m *Mobile) { m.Delay = -sec }), `mobile "mh": negative delay -1s`},
		{"configure_delay", "figure5", mobile(func(m *Mobile) { m.ConfigureDelay = -sec }), "negative configure_delay -1s"},
		{"route_change_delay", "figure5", mobile(func(m *Mobile) { m.RouteChangeDelay = -sec }), "negative route_change_delay -1s"},
		{"bring_up", "figure5", mobile(func(m *Mobile) { m.Ifaces[1].BringUp = -sec }), `iface "strip0": negative bring_up -1s`},
		{"bring_up_jitter", "figure5", mobile(func(m *Mobile) { m.Ifaces[0].BringUpJitter = -sec }), `iface "eth0": negative bring_up_jitter -1s`},
		{"fleet as shipped", "scale", fleet(func(*Fleet) {}), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join(catalogDir, tc.spec+".json"))
			if err != nil {
				t.Fatal(err)
			}
			spec, err := Parse(data)
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(spec)
			err = Validate(spec)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("valid spec refused: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("err = %v, want one mentioning %q", err, tc.wantErr)
			}
		})
	}
}

// TestWaitsPastTheEndOfTimeAreErrors: a settle, a step timeout or a drain
// that would carry the clock past the largest sim.Time is an error naming
// what asked for it. The settle used to panic the run ("RunUntil into the
// past"), and the timeout wrapped the deadline so the switch failed at once.
func TestWaitsPastTheEndOfTimeAreErrors(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(catalogDir, "faultdemo.json"))
	if err != nil {
		t.Fatal(err)
	}
	huge := Duration(2562047*time.Hour + 47*time.Minute + 16*time.Second)
	for _, c := range []struct {
		name    string
		mutate  func(*Spec)
		wantErr string
	}{
		{"settle", func(s *Spec) {
			s.Itinerary = []Step{s.Itinerary[0], {Op: "settle", For: Duration(2 * time.Second)}, {Op: "settle", For: huge}}
		}, "itinerary step 1: step settle: for 2562047h47m16s runs past the end of simulated time"},
		{"step timeout", func(s *Spec) { s.Itinerary[3].Timeout = huge }, "step cold-switch: timeout 2562047h47m16s runs past"},
		{"drain", func(s *Spec) { s.Traffic.Drain = huge }, "traffic.drain 2562047h47m16s runs past"},
	} {
		t.Run(c.name, func(t *testing.T) {
			spec, err := Parse(data)
			if err != nil {
				t.Fatal(err)
			}
			c.mutate(spec)
			w, err := Compile(1, spec)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Run(); err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("err = %v, want one mentioning %q", err, c.wantErr)
			}
		})
	}
}
