package scenario

import (
	"fmt"
	"strconv"
	"time"

	"mosquitonet/internal/app"
	"mosquitonet/internal/ip"
	"mosquitonet/internal/stats"
	"mosquitonet/internal/transport"
)

// runSettle is the fixed dwell after reliable flows have drained, so the
// last PUBACKs land and their spans close.
const runSettle = 2 * time.Second

// trafficWait bounds each handshake round of the traffic lowering
// (CONNACKs, SUBACKs).
const trafficWait = 30 * time.Second

// Flow is one declared traffic flow of a run: its labels and the tracker
// that owns its loss/latency/reordering accounting (and its name).
type Flow struct {
	Proto    string        // "udp", "mqtt-qos1" or "http"
	Model    string        // "open-loop" or "closed-loop"
	Size     int           // payload bytes per message, for goodput
	Interval time.Duration // send cadence (think time for closed-loop)
	Tracker  *stats.FlowTracker
}

// RunResult is what one run of a spec measured. Scoring the flows against
// the windows, and formatting either, is the caller's business.
type RunResult struct {
	// Flows holds every declared flow in spec order: UDP probes, then MQTT
	// publications, then HTTP flows.
	Flows []Flow
	// Windows are the closed handoff and fault root spans, in start order:
	// the intervals disruption is attributed to.
	Windows []stats.Window
	Faults  []FaultRecord

	// Broker and HTTPServer are the servers' final counters (zero when the
	// spec declares no such traffic).
	Broker     app.BrokerStats
	HTTPServer app.HTTPServerStats
}

// Run executes the world's own spec: attach the mobile host with the
// first itinerary step, start every declared flow in spec order, walk the
// rest of the itinerary (scheduled faults strike on their own), stop the
// generators, and drain. The drain rule is one: a run with reliable
// (MQTT/HTTP) flows runs until each has received everything it sent,
// bounded by traffic.drain — running out is an error, because a transport
// that never gives up loses nothing — and then settles 2 s; a run with
// only lossy probes runs for exactly traffic.drain.
func (w *World) Run() (*RunResult, error) {
	spec := w.Spec
	if len(spec.Itinerary) == 0 {
		return nil, fmt.Errorf("scenario %s: no itinerary to run", spec.Name)
	}
	if err := w.Step(spec.Itinerary[0]); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}
	tr, err := w.startTraffic()
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}
	if err := w.RunItinerary(spec.Itinerary[1:]); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}

	tr.stop()
	if spec.Traffic != nil {
		if err := w.fits(spec.Traffic.Drain.D()); err != nil {
			return nil, fmt.Errorf("scenario %s: traffic.drain %w", spec.Name, err)
		}
	}
	switch {
	case tr.reliable():
		drain := spec.Traffic.Drain.D()
		drained := w.RunUntil(drain, tr.drained)
		w.Loop.RunFor(runSettle)
		if !drained {
			return nil, fmt.Errorf("scenario %s: flows did not drain within %v", spec.Name, drain)
		}
	case spec.Traffic != nil:
		w.Loop.RunFor(spec.Traffic.Drain.D())
	}

	res := &RunResult{Flows: tr.flows, Windows: w.windows(), Faults: w.Faults.Records()}
	if tr.broker != nil {
		res.Broker = tr.broker.Stats()
	}
	if tr.web != nil {
		res.HTTPServer = tr.web.Stats()
	}
	return res, nil
}

// windows turns every closed root span that bounds a handoff or an
// injected fault into one attribution window, in span start order (spans
// are retained in start order).
func (w *World) windows() []stats.Window {
	var windows []stats.Window
	for _, sp := range w.Tracer.Spans() {
		if sp.Parent == 0 && (HandoffRootKinds(sp.Kind) || FaultRootKinds(sp.Kind)) && sp.End >= sp.Start {
			windows = append(windows, stats.Window{Kind: sp.Kind, Start: sp.Start, End: sp.End})
		}
	}
	return windows
}

// traffic is a spec's traffic section lowered onto the running world: the
// servers, the per-flow trackers, and the generators.
type traffic struct {
	flows []Flow

	probes []*FlowProbe
	pubs   []*app.PubFlow
	reqs   []*app.ReqFlow
	broker *app.Broker
	web    *app.HTTPServer
}

// trafficStack resolves a host name from the traffic section to its
// transport stack.
func (w *World) trafficStack(host string) (*transport.Stack, error) {
	ts, ok := w.Stacks[host]
	if !ok {
		return nil, fmt.Errorf("traffic: unknown host %q", host)
	}
	return ts, nil
}

// trafficAddr resolves a host name to the address its servers listen on:
// an end host's configured address, or a mobile host's home address.
func (w *World) trafficAddr(host string) (ip.Addr, error) {
	top := &w.Spec.Topology
	for i := range top.Hosts {
		if top.Hosts[i].Name == host {
			return ip.MustParseAddr(top.Hosts[i].Addr), nil
		}
	}
	for i := range top.Mobiles {
		if top.Mobiles[i].Name == host {
			return ip.MustParseAddr(top.Mobiles[i].HomeAddr), nil
		}
	}
	return ip.Addr{}, fmt.Errorf("traffic: unknown host %q", host)
}

// startTraffic lowers the spec's traffic section onto the running world
// and starts it. Probes come first, each started as it is built; then the
// application mix: servers, client sessions (waiting for CONNACKs),
// subscriptions and per-flow trackers (waiting for SUBACKs), and finally
// every generator, publications before requests. The order follows the
// spec's declaration order exactly — construction order is event order
// and therefore behavior.
func (w *World) startTraffic() (*traffic, error) {
	tr := &traffic{}
	t := w.Spec.Traffic
	if t == nil {
		return tr, nil
	}

	for i := range t.Probes {
		p := &t.Probes[i]
		from, err := w.trafficStack(p.From)
		if err != nil {
			return nil, err
		}
		to, err := w.trafficStack(p.To)
		if err != nil {
			return nil, err
		}
		probe, err := NewFlowProbe(w.Loop, from, to, ip.MustParseAddr(p.Dst), uint16(p.Port), p.Interval.D())
		if err != nil {
			return nil, fmt.Errorf("probe %s->%s: %w", p.From, p.To, err)
		}
		tr.probes = append(tr.probes, probe)
		tr.flows = append(tr.flows, Flow{
			Proto: "udp", Model: "open-loop", Size: probePayload, Interval: p.Interval.D(), Tracker: probe.Flow(),
		})
		probe.Start()
	}

	mqttClients := map[string]*app.Client{}
	if t.MQTT != nil {
		ts, err := w.trafficStack(t.MQTT.Broker.Host)
		if err != nil {
			return nil, err
		}
		tr.broker, err = app.NewBroker(ts, ip.Unspecified, uint16(t.MQTT.Broker.Port), "broker")
		if err != nil {
			return nil, err
		}
	}
	if t.HTTP != nil {
		ts, err := w.trafficStack(t.HTTP.Server.Host)
		if err != nil {
			return nil, err
		}
		tr.web, err = app.NewHTTPServer(ts, ip.Unspecified, uint16(t.HTTP.Server.Port), "web", app.EchoHandler)
		if err != nil {
			return nil, err
		}
	}

	if t.MQTT != nil {
		brokerAddr, err := w.trafficAddr(t.MQTT.Broker.Host)
		if err != nil {
			return nil, err
		}
		for i := range t.MQTT.Clients {
			c := &t.MQTT.Clients[i]
			ts, err := w.trafficStack(c.Host)
			if err != nil {
				return nil, err
			}
			mqttClients[c.Name] = app.NewClient(ts, c.Name)
		}
		connected := 0
		onConnack := func(err error) {
			if err == nil {
				connected++
			}
		}
		for i := range t.MQTT.Clients {
			if err := mqttClients[t.MQTT.Clients[i].Name].Connect(brokerAddr, uint16(t.MQTT.Broker.Port), onConnack); err != nil {
				return nil, err
			}
		}
		if !w.RunUntil(trafficWait, func() bool { return connected == len(t.MQTT.Clients) }) {
			return nil, fmt.Errorf("traffic: mqtt clients did not connect (%d/%d)", connected, len(t.MQTT.Clients))
		}
	}

	httpClients := map[string]*app.HTTPClient{}
	if t.HTTP != nil {
		serverAddr, err := w.trafficAddr(t.HTTP.Server.Host)
		if err != nil {
			return nil, err
		}
		for i := range t.HTTP.Flows {
			f := &t.HTTP.Flows[i]
			ts, err := w.trafficStack(f.Host)
			if err != nil {
				return nil, err
			}
			httpClients[f.Client] = app.NewHTTPClient(ts, f.Client)
		}
		for i := range t.HTTP.Flows {
			if err := httpClients[t.HTTP.Flows[i].Client].Connect(serverAddr, uint16(t.HTTP.Server.Port), nil); err != nil {
				return nil, err
			}
		}
	}

	if t.MQTT != nil {
		subAcks := 0
		for i := range t.MQTT.Pubs {
			pub := &t.MQTT.Pubs[i]
			from, to := mqttClients[pub.From], mqttClients[pub.To]
			if from == nil || to == nil {
				return nil, fmt.Errorf("traffic: publication %q references unknown client", pub.Topic)
			}
			ft := stats.NewFlowTracker(pub.Topic)
			if err := to.Subscribe(pub.Topic, byte(pub.QoS), app.SinkHandler(w.Loop, ft), func() { subAcks++ }); err != nil {
				return nil, err
			}
			tr.flows = append(tr.flows, Flow{
				Proto: "mqtt-qos" + strconv.Itoa(pub.QoS), Model: "open-loop", Size: pub.Size, Interval: pub.Interval.D(), Tracker: ft,
			})
			tr.pubs = append(tr.pubs, app.NewPubFlow(from, ft, pub.Topic, pub.Interval.D(), byte(pub.QoS), pub.Size))
		}
		if !w.RunUntil(trafficWait, func() bool { return subAcks == len(t.MQTT.Pubs) }) {
			return nil, fmt.Errorf("traffic: subscriptions not acked (%d/%d)", subAcks, len(t.MQTT.Pubs))
		}
	}

	if t.HTTP != nil {
		trackers := make([]*stats.FlowTracker, len(t.HTTP.Flows))
		for i := range t.HTTP.Flows {
			f := &t.HTTP.Flows[i]
			trackers[i] = stats.NewFlowTracker(f.Name)
			model := "open-loop"
			if f.Closed {
				model = "closed-loop"
			}
			tr.flows = append(tr.flows, Flow{
				Proto: "http", Model: model, Size: f.Size, Interval: f.Interval.D(), Tracker: trackers[i],
			})
		}
		for i := range t.HTTP.Flows {
			f := &t.HTTP.Flows[i]
			tr.reqs = append(tr.reqs,
				app.NewReqFlow(httpClients[f.Client], trackers[i], f.Path, f.Interval.D(), f.Closed, f.Size))
		}
	}

	for _, f := range tr.pubs {
		f.Start()
	}
	for _, f := range tr.reqs {
		f.Start()
	}
	return tr, nil
}

// stop halts every generator; in-flight messages still count on arrival
// (probes are paused, not closed, so their sinks keep collecting).
func (tr *traffic) stop() {
	for _, p := range tr.probes {
		p.Pause()
	}
	for _, f := range tr.pubs {
		f.Stop()
	}
	for _, f := range tr.reqs {
		f.Stop()
	}
}

// reliable reports whether any flow rides the stream transport.
func (tr *traffic) reliable() bool { return len(tr.pubs)+len(tr.reqs) > 0 }

// drained reports whether every reliable flow (flows lists the probes
// first) has received everything it sent.
func (tr *traffic) drained() bool {
	for _, f := range tr.flows[len(tr.probes):] {
		sent, received, _, _ := f.Tracker.Totals()
		if received < sent {
			return false
		}
	}
	return true
}
