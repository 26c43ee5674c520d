package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"mosquitonet/internal/app"
	"mosquitonet/internal/ip"
	"mosquitonet/internal/mip"
	"mosquitonet/internal/scenario"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/stats"
	"mosquitonet/internal/transport"
)

// The campus_app workload is the paper's Figure-5 testbed compiled from a
// scenario spec, with one mobile host walked through the spec's itinerary
// under MQTT QoS-1 publications, open- and closed-loop HTTP requests and a
// raw TCP bulk flow. The benchmark lowers the traffic onto the public app
// and transport API itself and interprets the itinerary itself, event by
// event, so it can time each switch from its call to its done callback and
// read the counters of the connections it owns.

// campusSpec is the "campus" block of a workload file.
type campusSpec struct {
	// Scenario is a complete scenario spec: topology, MQTT and HTTP
	// traffic, itinerary. The first itinerary step attaches the mobile
	// host; traffic starts once it has.
	Scenario json.RawMessage `json:"scenario"`
	// Bulk is a periodic write on a TCP connection the benchmark owns,
	// from the mobile host to a listener on end host To.
	Bulk struct {
		To       string            `json:"to"`
		Port     int               `json:"port"`
		Interval scenario.Duration `json:"interval"`
		Size     int               `json:"size"`
	} `json:"bulk"`

	// shortSteps, when positive, cuts the itinerary to that many steps.
	shortSteps int
}

// runCap bounds the virtual time an itinerary may take before the run is
// declared stalled.
const runCap = 10 * time.Minute

// campusFlow is one tracked application flow.
type campusFlow struct {
	name    string
	qos1    bool
	tracker *stats.FlowTracker
}

type campus struct {
	spec  *scenario.Spec
	w     *scenario.World
	loop  *sim.Loop
	mh    *mip.MobileHost
	steps []scenario.Step

	broker   *app.Broker
	web      *app.HTTPServer
	mqtt     []*app.Client // in spec order
	mqttBy   map[string]*app.Client
	http     []*app.HTTPClient // one per HTTP flow, in spec order
	flows    []campusFlow
	pubFlows []*app.PubFlow
	reqFlows []*app.ReqFlow

	bulk         *transport.Conn
	bulkTo       ip.Addr
	bulkPort     uint16
	bulkSize     int
	bulkInterval time.Duration
	bulkWrites   uint64
	bulkBytes    uint64 // received by the listener
	bulkOn       bool

	handoffs        []time.Duration
	handoffsStarted int
	finished        bool
	err             error
}

func buildCampus(seed int64, cs *campusSpec, rec *recorder) (*campus, error) {
	t := rec.tick()
	spec, err := scenario.Parse(cs.Scenario)
	rec.lap("setup.scenario.parse", t)
	if err != nil {
		return nil, err
	}
	if len(spec.Topology.Mobiles) != 1 || len(spec.Itinerary) == 0 || spec.Traffic == nil ||
		spec.Traffic.MQTT == nil || spec.Traffic.HTTP == nil {
		return nil, fmt.Errorf("campus: scenario %q needs one mobile, an itinerary, and mqtt and http traffic", spec.Name)
	}
	t = rec.tick()
	w, err := scenario.Compile(seed, spec)
	rec.lap("setup.scenario.compile", t)
	if err != nil {
		return nil, err
	}
	mobile := spec.Topology.Mobiles[0].Name
	c := &campus{
		spec: spec, w: w, loop: w.Loop, mh: w.Mobiles[mobile], steps: spec.Itinerary,
		mqttBy:   map[string]*app.Client{},
		bulkPort: uint16(cs.Bulk.Port), bulkSize: cs.Bulk.Size, bulkInterval: cs.Bulk.Interval.D(),
	}
	c.bulkTo = c.addrOf(cs.Bulk.To)
	if cs.shortSteps > 0 && cs.shortSteps < len(c.steps) {
		c.steps = c.steps[:cs.shortSteps]
	}

	// Servers, clients, trackers and generators are constructed here, in
	// the spec's declaration order; nothing connects until run.
	t = rec.tick()
	defer func() { rec.lap("setup.app", t) }()
	tr := spec.Traffic
	stackOf := func(host string) (*transport.Stack, error) {
		ts, ok := w.Stacks[host]
		if !ok {
			return nil, fmt.Errorf("campus: traffic names unknown host %q", host)
		}
		return ts, nil
	}
	ts, err := stackOf(tr.MQTT.Broker.Host)
	if err != nil {
		return nil, err
	}
	if c.broker, err = app.NewBroker(ts, ip.Unspecified, uint16(tr.MQTT.Broker.Port), "broker"); err != nil {
		return nil, err
	}
	if ts, err = stackOf(tr.HTTP.Server.Host); err != nil {
		return nil, err
	}
	if c.web, err = app.NewHTTPServer(ts, ip.Unspecified, uint16(tr.HTTP.Server.Port), "web", app.EchoHandler); err != nil {
		return nil, err
	}
	if ts, err = stackOf(cs.Bulk.To); err != nil {
		return nil, err
	}
	if _, err = ts.Listen(ip.Unspecified, uint16(cs.Bulk.Port), func(conn *transport.Conn) {
		conn.OnData = func(b []byte) { c.bulkBytes += uint64(len(b)) }
	}); err != nil {
		return nil, err
	}
	for _, mc := range tr.MQTT.Clients {
		if ts, err = stackOf(mc.Host); err != nil {
			return nil, err
		}
		cl := app.NewClient(ts, mc.Name)
		c.mqtt = append(c.mqtt, cl)
		c.mqttBy[mc.Name] = cl
	}
	for _, pub := range tr.MQTT.Pubs {
		from, to := c.mqttBy[pub.From], c.mqttBy[pub.To]
		if from == nil || to == nil {
			return nil, fmt.Errorf("campus: publication %q names an unknown client", pub.Topic)
		}
		ft := stats.NewFlowTracker(pub.Topic)
		c.flows = append(c.flows, campusFlow{name: pub.Topic, qos1: pub.QoS == 1, tracker: ft})
		c.pubFlows = append(c.pubFlows, app.NewPubFlow(from, ft, pub.Topic, pub.Interval.D(), byte(pub.QoS), pub.Size))
	}
	for _, hf := range tr.HTTP.Flows {
		if ts, err = stackOf(hf.Host); err != nil {
			return nil, err
		}
		hc := app.NewHTTPClient(ts, hf.Client)
		c.http = append(c.http, hc)
		ft := stats.NewFlowTracker(hf.Name)
		c.flows = append(c.flows, campusFlow{name: hf.Name, tracker: ft})
		c.reqFlows = append(c.reqFlows, app.NewReqFlow(hc, ft, hf.Path, hf.Interval.D(), hf.Closed, hf.Size))
	}
	return c, nil
}

// addrOf resolves an end host's configured address.
func (c *campus) addrOf(name string) ip.Addr {
	for _, h := range c.spec.Topology.Hosts {
		if h.Name == name {
			return ip.MustParseAddr(h.Addr)
		}
	}
	return ip.Addr{}
}

// fail ends the run with err; finish ends it cleanly.
func (c *campus) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.finish()
}

func (c *campus) finish() {
	c.finished = true
	for _, f := range c.pubFlows {
		f.Stop()
	}
	for _, f := range c.reqFlows {
		f.Stop()
	}
	c.bulkOn = false
}

// startTraffic connects every client, subscribes every publication's sink
// and, once all are acknowledged, starts the generators and calls next.
func (c *campus) startTraffic(next func()) {
	tr := c.spec.Traffic
	pending := len(c.mqtt) + len(c.http) + 1
	up := func(err error) {
		if err != nil {
			c.fail(fmt.Errorf("campus: connect: %w", err))
			return
		}
		if pending--; pending > 0 {
			return
		}
		acks := len(tr.MQTT.Pubs)
		for i, pub := range tr.MQTT.Pubs {
			err := c.mqttBy[pub.To].Subscribe(pub.Topic, byte(pub.QoS), app.SinkHandler(c.loop, c.flows[i].tracker), func() {
				if acks--; acks > 0 {
					return
				}
				for _, f := range c.pubFlows {
					f.Start()
				}
				for _, f := range c.reqFlows {
					f.Start()
				}
				c.bulkOn = true
				c.loop.Schedule(c.bulkInterval, c.bulkTick)
				next()
			})
			if err != nil {
				c.fail(fmt.Errorf("campus: subscribe %s: %w", pub.Topic, err))
				return
			}
		}
	}
	broker := c.addrOf(tr.MQTT.Broker.Host)
	for _, cl := range c.mqtt {
		if err := cl.Connect(broker, uint16(tr.MQTT.Broker.Port), up); err != nil {
			c.fail(err)
			return
		}
	}
	server := c.addrOf(tr.HTTP.Server.Host)
	for _, hc := range c.http {
		if err := hc.Connect(server, uint16(tr.HTTP.Server.Port), up); err != nil {
			c.fail(err)
			return
		}
	}
	conn, err := c.mh.Transport().Connect(ip.Unspecified, c.bulkTo, c.bulkPort)
	if err != nil {
		c.fail(err)
		return
	}
	c.bulk = conn
	conn.OnEstablished = func() { up(nil) }
	conn.OnError = func(err error) { c.fail(fmt.Errorf("campus: bulk connection: %w", err)) }
}

func (c *campus) bulkTick() {
	if !c.bulkOn {
		return
	}
	c.loop.Schedule(c.bulkInterval, c.bulkTick)
	c.bulkWrites++
	if err := c.bulk.Write(app.Payload(c.bulkWrites, c.bulkSize)); err != nil {
		c.fail(fmt.Errorf("campus: bulk write: %w", err))
	}
}

// step executes itinerary step i and, when it completes, the next one.
// Switches are timed in virtual time from their call to their callback.
func (c *campus) step(i int) {
	if c.finished {
		return
	}
	if i >= len(c.steps) {
		c.finish()
		return
	}
	st := c.steps[i]
	next := func() { c.step(i + 1) }
	if st.Op == "settle" {
		c.loop.Schedule(st.For.D(), next)
		return
	}
	mobile := c.spec.Topology.Mobiles[0]
	mi := c.w.MIfaces[mobile.Name+"/"+st.Iface]
	gateway := ip.MustParseAddr(mobile.HomeAgent)
	if st.Gateway != "" {
		gateway = ip.MustParseAddr(st.Gateway)
	}
	// timed runs one switch and records its latency.
	timed := func(start func(done func(error))) {
		began := c.loop.Now()
		c.handoffsStarted++
		start(func(err error) {
			if err != nil {
				c.fail(fmt.Errorf("campus: step %d (%s): %w", i, st.Op, err))
				return
			}
			c.handoffs = append(c.handoffs, c.loop.Now().Sub(began))
			next()
		})
	}
	switch st.Op {
	case "move":
		dev := mi.Iface().Device()
		dev.Detach()
		dev.Attach(c.w.Networks[st.To])
		next()
	case "connect-home":
		c.mh.ConnectHome(mi, gateway, func(err error) {
			if err != nil {
				c.fail(fmt.Errorf("campus: connect-home: %w", err))
				return
			}
			c.startTraffic(next)
		})
	case "cold-switch":
		timed(func(done func(error)) { c.mh.ColdSwitch(mi, done) })
	case "cold-switch-home":
		timed(func(done func(error)) { c.mh.ColdSwitchHome(mi, gateway, done) })
	case "switch-address":
		timed(func(done func(error)) { c.mh.SwitchAddress(ip.MustParseAddr(st.Addr), done) })
	case "hot-switch":
		// Make before break: raise and prepare the target while the old
		// interface carries traffic, switch, then drop the old one.
		old := c.mh.Active()
		mi.Iface().Device().BringUp(func() {
			c.mh.Prepare(mi, func(err error) {
				if err != nil {
					c.fail(fmt.Errorf("campus: step %d prepare: %w", i, err))
					return
				}
				timed(func(done func(error)) {
					c.mh.HotSwitch(mi, func(err error) {
						if err == nil && old != nil && old != mi {
							c.mh.Disconnect(old)
						}
						done(err)
					})
				})
			})
		})
	default:
		c.fail(fmt.Errorf("campus: step %d: unknown op %q", i, st.Op))
	}
}

func (c *campus) run(clk *runClock) error {
	if c.steps[0].Op != "connect-home" {
		return fmt.Errorf("campus: the itinerary must start with connect-home")
	}
	c.loop.Schedule(0, func() { c.step(0) })
	for !c.finished {
		if c.loop.Now().Duration() > runCap {
			return fmt.Errorf("campus: itinerary stalled: not finished after %v of virtual time", runCap)
		}
		clk.step("run.slice", func() { c.loop.RunFor(sliceLen) })
	}
	return c.err
}

func (c *campus) drained() bool {
	for _, f := range c.flows {
		if sent, received, _, _ := f.tracker.Totals(); received < sent {
			return false
		}
	}
	return c.bulkBytes >= c.bulkWrites*uint64(c.bulkSize)
}

// drain runs until every flow has delivered what it sent, bounded by the
// spec's drain time, then two more seconds so acknowledgments and spans
// close.
func (c *campus) drain() {
	deadline := c.loop.Now().Add(c.spec.Traffic.Drain.D())
	for !c.drained() && c.loop.Now() < deadline {
		c.loop.RunFor(sliceLen)
	}
	c.loop.RunFor(2 * time.Second)
}

func (c *campus) collect(rec *recorder) outcome {
	out := outcome{VirtualEnd: c.loop.Now(), Workers: 1, HandoffsStarted: c.handoffsStarted}
	out.Handoffs = append(out.Handoffs, c.handoffs...)
	sort.Slice(out.Handoffs, func(i, j int) bool { return out.Handoffs[i] < out.Handoffs[j] })

	var t tally
	t.events, t.queueHighWater = c.loop.Executed(), uint64(c.loop.QueueHighWater())
	top := &c.spec.Topology
	for _, s := range top.Subnets {
		t.addNetwork(c.w.Networks[s.Name])
	}
	for _, name := range c.w.HostNames() {
		h, _ := c.w.Host(name)
		t.addHost(h)
	}
	for _, r := range top.Routers {
		t.addTransport(c.w.RouterTS[r.Name])
		if ha := c.w.HAs[r.Name]; ha != nil {
			t.addHomeAgent(ha)
		}
		if d := c.w.DHCPs[r.Name]; d != nil {
			t.addDHCP(d)
		}
	}
	for _, h := range top.Hosts {
		t.addTransport(c.w.Stacks[h.Name])
	}
	t.addTransport(c.mh.Transport())
	t.addMobile(c.mh)
	if c.bulk != nil {
		t.addConn(c.bulk)
	}
	t.addBroker(c.broker)
	t.addHTTPServer(c.web)
	rec.begin("collect.trace.export")
	t.traceEvents = uint64(len(c.w.Tracer.Events()))
	t.traceSpans = uint64(len(c.w.Tracer.Spans()))
	t.traceDropped = c.w.Tracer.Dropped() + c.w.Tracer.DroppedSpans()
	t.packetLogEvents, t.packetLogEvicted = uint64(c.w.Packets.Len()), c.w.Packets.Evicted()
	rec.end()
	rec.begin("collect.metrics.snapshot")
	t.snapshotRows = uint64(len(c.w.Metrics.Snapshot().Metrics))
	rec.end()
	out.Counts = t.counts()

	for _, f := range c.flows {
		sent, received, _, _ := f.tracker.Totals()
		out.Flows = append(out.Flows, flowTotal{Name: f.name, Sent: uint64(sent), Received: uint64(received)})
		dups, unknown := f.tracker.Anomalies()
		switch {
		case f.qos1 && (dups != 0 || unknown != 0 || received != sent):
			out.Violations = append(out.Violations, fmt.Sprintf("%s: QoS 1 not exactly once: sent %d, received %d, %d duplicates, %d unknown", f.name, sent, received, dups, unknown))
		case received != sent:
			out.Violations = append(out.Violations, fmt.Sprintf("%s: %d of %d not answered", f.name, sent-received, sent))
		}
	}
	bulk := flowTotal{Name: "tcp/bulk", Sent: c.bulkWrites, Received: c.bulkBytes / uint64(c.bulkSize)}
	out.Flows = append(out.Flows, bulk)
	if c.bulkBytes != c.bulkWrites*uint64(c.bulkSize) {
		out.Violations = append(out.Violations, fmt.Sprintf("tcp/bulk: %d of %d bytes delivered", c.bulkBytes, c.bulkWrites*uint64(c.bulkSize)))
	}
	if n := out.HandoffsStarted - len(out.Handoffs); n > 0 {
		out.Violations = append(out.Violations, fmt.Sprintf("%d handoffs failed or never completed", n))
	}
	return out
}

func (c *campus) close() { c.w.Close() }
