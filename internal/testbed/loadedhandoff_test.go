package testbed

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"mosquitonet/internal/app"
	"mosquitonet/internal/ip"
	"mosquitonet/internal/scenario"
	"mosquitonet/internal/stats"
)

func TestLoadedHandoffScoring(t *testing.T) {
	res, err := RunLoadedHandoff(1996)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows

	// Every publication and HTTP flow in the spec: three telemetry flows,
	// the command flow, and two HTTP flows.
	spec := MustScenario("loadedhandoff")
	wantFlows := len(spec.Traffic.MQTT.Pubs) + len(spec.Traffic.HTTP.Flows)
	if len(rows.Flows) != wantFlows {
		t.Fatalf("flows = %d, want %d", len(rows.Flows), wantFlows)
	}

	// The same six root windows as the bare handoff observatory, scored
	// against every flow.
	for _, f := range rows.Flows {
		if len(f.Handoffs) != 6 {
			t.Fatalf("flow %s has %d windows, want 6", f.Flow, len(f.Handoffs))
		}
		if f.PacketsSent == 0 {
			t.Errorf("flow %s never sent", f.Flow)
		}
		if f.PacketsLost != 0 || f.PacketsReceived != f.PacketsSent {
			t.Errorf("flow %s lost traffic over a reliable transport: %+v", f.Flow, f)
		}
		if f.MaxLatencyNS < f.BaselineLatencyNS {
			t.Errorf("flow %s max latency below baseline", f.Flow)
		}
		if f.ThroughputBps <= 0 {
			t.Errorf("flow %s throughput = %d", f.Flow, f.ThroughputBps)
		}
	}

	// QoS 1 exactly-once must hold across the whole itinerary.
	if !rows.QoS1ExactlyOnce {
		t.Error("QoS 1 exactly-once conformance failed")
	}
	for _, f := range rows.Flows {
		if f.Duplicates != 0 {
			t.Errorf("flow %s saw %d duplicate deliveries", f.Flow, f.Duplicates)
		}
	}

	// Handoffs must actually hurt: at least one window shows a blackout
	// beyond its own duration's jitter and a latency spike over baseline.
	sawBlackout := false
	for _, f := range rows.Flows {
		for _, w := range f.Handoffs {
			if w.BlackoutNS > int64(time.Second) && w.MaxLatencySpikeNS > 0 {
				sawBlackout = true
			}
		}
	}
	if !sawBlackout {
		t.Error("no flow shows handoff disruption; the load model is not measuring")
	}

	// The broker carried the pub/sub fleet, the server the request mix.
	if rows.BrokerStats.Publishes == 0 || rows.BrokerStats.Delivered == 0 {
		t.Errorf("broker idle: %+v", rows.BrokerStats)
	}
	if rows.HTTPServerStats.Requests == 0 {
		t.Errorf("http server idle: %+v", rows.HTTPServerStats)
	}

	// The app layer traced its operations under the app.* vocabulary.
	for _, kind := range []string{"app.mqtt.session", "app.mqtt.connect", "app.mqtt.publish", "app.mqtt.subscribe", "app.http.request"} {
		if len(res.Tracer.FindSpans(kind)) == 0 {
			t.Errorf("no %s spans recorded", kind)
		}
	}
	// Publish spans stretched by a handoff are the app-level cost signal:
	// at least one must outlast the baseline RTT by a wide margin.
	stretched := false
	for _, sp := range res.Tracer.FindSpans("app.mqtt.publish") {
		if sp.End >= sp.Start && sp.End.Sub(sp.Start) > time.Second {
			stretched = true
			break
		}
	}
	if !stretched {
		t.Error("no publish span shows handoff-induced stall")
	}
}

// TestFlowsAreLabelledByQoS: a publication's flow row carries the QoS the
// spec declares, so a QoS-0 flow — which may lose a publish across a handoff
// — is not held to the QoS 1 exactly-once check.
func TestFlowsAreLabelledByQoS(t *testing.T) {
	raw, err := scenario.Marshal(MustScenario("loadedhandoff"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	spec.Traffic.MQTT.Pubs[0].QoS = 0
	tb, err := NewFromSpec(1996, spec)
	if err != nil {
		t.Fatal(err)
	}
	run, err := tb.World.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, pub := range spec.Traffic.MQTT.Pubs {
		want := "mqtt-qos" + strconv.Itoa(pub.QoS)
		if got := run.Flows[i].Proto; got != want {
			t.Errorf("publication %d (%s, qos %d) is labelled %q, want %q", i, pub.Topic, pub.QoS, got, want)
		}
	}
}

// A QoS 1 publish issued while a cold switch is in progress must arrive at
// the subscriber exactly once: the transport replays lost segments, and the
// app layer never re-publishes, so handoffs cannot duplicate or drop it.
func TestQoS1ExactlyOnceAcrossHandoff(t *testing.T) {
	tb := New(42)
	tb.MustConnectHome()

	const brokerPort = 1883
	if _, err := app.NewBroker(tb.CH, ip.Unspecified, brokerPort, "broker"); err != nil {
		t.Fatal(err)
	}
	pub := app.NewClient(tb.MHTS, "mh-pub")
	sub := app.NewClient(tb.CampusCH, "campus-sub")
	if err := pub.Connect(CHAddr, brokerPort, nil); err != nil {
		t.Fatal(err)
	}
	if err := sub.Connect(CHAddr, brokerPort, nil); err != nil {
		t.Fatal(err)
	}
	if !tb.World.RunUntil(10*time.Second, func() bool { return pub.Connected() && sub.Connected() }) {
		t.Fatal("clients did not connect")
	}

	tracker := stats.NewFlowTracker("inflight")
	if err := sub.Subscribe("inflight", 1, app.SinkHandler(tb.Loop, tracker), nil); err != nil {
		t.Fatal(err)
	}
	tb.Run(time.Second)

	// Begin the cold switch, and publish while it is still in progress: the
	// segments carrying the publish race the address change.
	switched := false
	tb.MoveEthTo(tb.DeptNet)
	tb.MH.ColdSwitch(tb.Eth, func(err error) {
		if err != nil {
			t.Errorf("cold switch: %v", err)
		}
		switched = true
	})
	seq := uint64(1)
	tracker.Sent(seq, tb.Loop.Now())
	acked := false
	if err := pub.Publish("inflight", app.Payload(seq, 16), 1, false, func() { acked = true }); err != nil {
		t.Fatal(err)
	}
	if !tb.World.RunUntil(30*time.Second, func() bool { return switched }) {
		t.Fatal("cold switch did not complete")
	}
	if !tb.World.RunUntil(30*time.Second, func() bool { return acked }) {
		t.Fatal("in-flight QoS 1 publish never acked after handoff")
	}
	tb.Run(5 * time.Second)

	sent, received, lost, _ := tracker.Totals()
	dups, unknown := tracker.Anomalies()
	if sent != 1 || received != 1 || lost != 0 || dups != 0 || unknown != 0 {
		t.Fatalf("exactly-once violated: sent=%d received=%d lost=%d dups=%d unknown=%d",
			sent, received, lost, dups, unknown)
	}
}

func TestLoadedHandoffStringRendering(t *testing.T) {
	res, err := RunLoadedHandoff(3)
	if err != nil {
		t.Fatal(err)
	}
	out := res.String()
	for _, want := range []string{"LOADEDHANDOFF", "exactly-once", "telemetry/mh/0", "http/closed", "worst-hit"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}
