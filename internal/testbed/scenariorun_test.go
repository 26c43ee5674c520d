package testbed

import (
	"testing"
)

// The faultdemo scenario schedules a home-agent crash, a loss burst, and
// a link flap against the roaming probe. The crash must cost the flow
// real packets (the binding is gone, tunnelled traffic black-holes until
// the 8s-lifetime renewal re-registers), every fault must heal within
// the run, and the flow tracker must attribute the damage to the fault
// windows the injector leaves behind.
func TestFaultInjectionScoring(t *testing.T) {
	res, err := RunScenarioProbe(1996, MustScenario("faultdemo"))
	if err != nil {
		t.Fatal(err)
	}

	wantKinds := []string{"fault.ha.crash", "fault.loss.burst", "fault.link.flap"}
	if len(res.Rows.Faults) != len(wantKinds) {
		t.Fatalf("fault records = %d, want %d: %+v", len(res.Rows.Faults), len(wantKinds), res.Rows.Faults)
	}
	for i, rec := range res.Rows.Faults {
		if rec.Kind != wantKinds[i] {
			t.Errorf("fault %d kind = %s, want %s", i, rec.Kind, wantKinds[i])
		}
		if rec.End <= rec.Start {
			t.Errorf("fault %s never healed: %+v", rec.Kind, rec)
		}
	}

	if len(res.Rows.Flows) != 1 {
		t.Fatalf("flows = %d, want 1", len(res.Rows.Flows))
	}
	flow := res.Rows.Flows[0]
	if flow.PacketsSent == 0 {
		t.Fatal("probe never sent")
	}

	// Each scored window carries its span kind; the scenario's single
	// handoff (cold-switch to the department) plus the three faults must
	// all appear.
	seen := map[string]int{}
	byKind := map[string]int{}
	for i, w := range flow.Windows {
		seen[w.Kind]++
		byKind[w.Kind] = i
	}
	for _, k := range append([]string{"handoff.home", "handoff.cold"}, wantKinds...) {
		if seen[k] == 0 {
			t.Errorf("no attribution window for %s (have %v)", k, seen)
		}
	}

	// The crash window is the expensive one: the home agent drops its
	// bindings and every tunnelled probe packet until the renewal
	// re-registers, so the flow must show both loss and a blackout there.
	crash := flow.Windows[byKind["fault.ha.crash"]]
	if crash.PacketsLost == 0 {
		t.Errorf("ha-crash window lost no packets: %+v", crash)
	}
	if crash.BlackoutNS <= 0 {
		t.Errorf("ha-crash window has no blackout: %+v", crash)
	}

	// The injector really crashed the agent once, and the renewal
	// restored the binding before the run ended.
	ha := res.Testbed.HA
	if got := ha.Stats().Crashes; got != 1 {
		t.Errorf("HA crashes = %d, want 1", got)
	}
	if ha.Stats().DropWhileDown == 0 {
		t.Error("HA dropped nothing while down")
	}
	if _, ok := ha.Binding(MHHomeAddr); !ok {
		t.Error("binding not re-registered after crash")
	}
}

// Every catalog scenario goes through the generic entry. One with an
// itinerary reports every flow it declares — for the specs that also have
// a dedicated driver, with that driver's totals — and one without
// (figure5, scale) is an error, not a panic.
func TestGenericRunnerWalksCatalog(t *testing.T) {
	type totals struct{ sent, received, lost int }
	dedicated := map[string]map[string]totals{"handoff": {}, "loadedhandoff": {}}
	h, err := RunHandoff(1996)
	if err != nil {
		t.Fatal(err)
	}
	dedicated["handoff"][h.Flow.Name()] = totals{h.Rows.PacketsSent, h.Rows.PacketsReceived, h.Rows.PacketsLost}
	lh, err := RunLoadedHandoff(1996)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range lh.Rows.Flows {
		dedicated["loadedhandoff"][f.Flow] = totals{f.PacketsSent, f.PacketsReceived, f.PacketsLost}
	}

	names, err := ScenarioNames()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			spec := MustScenario(name)
			res, err := RunScenarioProbe(1996, spec)
			if len(spec.Itinerary) == 0 {
				if err == nil {
					t.Fatal("a spec with no itinerary ran")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			want := len(spec.Traffic.Probes)
			if spec.Traffic.MQTT != nil {
				want += len(spec.Traffic.MQTT.Pubs)
			}
			if spec.Traffic.HTTP != nil {
				want += len(spec.Traffic.HTTP.Flows)
			}
			if len(res.Rows.Flows) != want {
				t.Fatalf("flows = %d, want the spec's %d", len(res.Rows.Flows), want)
			}
			for _, f := range res.Rows.Flows {
				if f.PacketsSent == 0 {
					t.Errorf("flow %s never sent", f.Flow)
				}
				if d, ok := dedicated[name]; ok {
					if got := (totals{f.PacketsSent, f.PacketsReceived, f.PacketsLost}); got != d[f.Flow] {
						t.Errorf("flow %s: generic runner %+v, dedicated driver %+v", f.Flow, got, d[f.Flow])
					}
				}
			}
		})
	}
}
