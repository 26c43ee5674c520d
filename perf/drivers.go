package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"mosquitonet/internal/app"
	"mosquitonet/internal/arp"
	"mosquitonet/internal/bufpool"
	"mosquitonet/internal/dhcp"
	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/metrics"
	"mosquitonet/internal/pipeline"
	"mosquitonet/internal/scenario"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/stack"
	"mosquitonet/internal/trace"
	"mosquitonet/internal/transport"
	"mosquitonet/internal/tunnel"
)

// The layer drivers each call one layer's public functions in a loop, on
// inputs shaped like the workload that leans on that layer, and report
// nanoseconds (and for some, heap allocations) per operation. They are
// the per-layer costs a change to one layer should move first; the
// workloads then show what that is worth end to end.

// layerValue is one per-layer metric.
type layerValue struct {
	name, unit string
	value      float64
}

// Trace kinds the trace drivers record under.
const (
	kDriverSpan  = "perf.driver.span"
	kDriverEvent = "perf.driver.event"
)

// driverProto is the IP protocol number the stack and tunnel drivers
// deliver to (253, reserved for experimentation).
const driverProto = ip.Protocol(253)

// driverEnv runs drivers: each for at least minTime, a span around each.
type driverEnv struct {
	minTime time.Duration
	rec     *recorder
	out     []layerValue
}

// measure times op, which performs about n operations and returns how many
// it did, with growing n until one call lasts minTime; it reports
// nanoseconds per operation under metric and, if allocs, heap allocations
// per operation under the same name with _allocs for the _ns... suffix.
func (e *driverEnv) measure(metric string, allocs bool, op func(n int) float64) {
	base := metric[:strings.LastIndex(metric, "_ns")]
	e.rec.begin("driver." + base)
	defer e.rec.end()
	var ms0, ms1 runtime.MemStats
	for n := 1; ; n *= 4 {
		runtime.ReadMemStats(&ms0)
		t0 := now()
		units := op(n)
		d := since(t0)
		runtime.ReadMemStats(&ms1)
		if d < e.minTime && n < 1<<24 {
			continue
		}
		e.out = append(e.out, layerValue{metric, "ns", float64(d.Nanoseconds()) / units})
		if allocs {
			e.out = append(e.out, layerValue{base + "_allocs", "count", float64(ms1.Mallocs-ms0.Mallocs) / units})
		}
		return
	}
}

func (e *driverEnv) add(name, unit string, v float64) {
	e.out = append(e.out, layerValue{name, unit, v})
}

// runDrivers runs every layer driver and returns the per-layer metrics
// they produce.
func runDrivers(minTime time.Duration, rec *recorder) ([]layerValue, error) {
	e := &driverEnv{minTime: minTime, rec: rec}
	driveSim(e)
	driveLink(e)
	driveARP(e)
	driveIP(e)
	drivePipeline(e)
	for _, drive := range []func(*driverEnv) error{
		driveStack, driveNewHost, driveTunnel, driveCampusWorld, driveTransport, driveApp, driveTelemetry, driveTelemetryOverhead,
	} {
		if err := drive(e); err != nil {
			return nil, err
		}
	}
	return e.out, nil
}

func nop() {}

func driveSim(e *driverEnv) {
	// Schedule one event and run the earliest, at a steady queue depth: the
	// fleets' shards sit near 1k pending events, a 100k fleet near 32k.
	for _, c := range []struct {
		metric string
		allocs bool
		depth  int
	}{{"sim.schedule_step_ns", true, 1 << 10}, {"sim.schedule_step_deep_ns", false, 1 << 15}} {
		loop := sim.New(1)
		for i := 1; i <= c.depth; i++ {
			loop.Schedule(time.Duration(i)*time.Microsecond, nop)
		}
		horizon := time.Duration(c.depth) * time.Microsecond
		e.measure(c.metric, c.allocs, func(n int) float64 {
			for i := 0; i < n; i++ {
				loop.Schedule(horizon, nop)
				loop.Step()
			}
			return float64(n)
		})
	}

	// Arm one bucketed lane timer, as ARP and retransmission timers do.
	loop := sim.New(1)
	lane := loop.Lane(10 * time.Millisecond)
	e.measure("sim.lane_timer_ns", false, func(n int) float64 {
		for i := 0; i < n; i++ {
			lane.Schedule(50*time.Millisecond, nop)
			if i%256 == 255 {
				loop.RunFor(100 * time.Millisecond)
			}
		}
		loop.RunFor(100 * time.Millisecond)
		return float64(n)
	})

	// One epoch barrier over 17 shards of which one has work, inline and on
	// a worker pool: the coordination cost an idle region adds per epoch.
	for _, c := range []struct {
		metric  string
		workers int
	}{{"sim.epoch_ns", 1}, {"sim.epoch_par_ns", runtime.NumCPU()}} {
		lookahead := link.Backbone().MinLatency()
		loops := make([]*sim.Loop, 17)
		for k := range loops {
			loops[k] = sim.New(sim.ShardSeed(1, k))
		}
		ss := sim.NewShardSet(loops, lookahead)
		ss.SetWorkers(c.workers)
		var tick func()
		tick = func() { loops[0].Schedule(lookahead, tick) }
		loops[0].Schedule(0, tick)
		e.measure(c.metric, false, func(n int) float64 {
			before := ss.Epochs()
			ss.RunFor(time.Duration(n) * lookahead)
			return float64(ss.Epochs() - before)
		})
	}
}

func driveLink(e *driverEnv) {
	// One frame across a two-device segment, and one broadcast across a
	// 512-device segment: the per-frame and the per-receiver cost.
	for _, c := range []struct {
		metric  string
		allocs  bool
		devices int
	}{{"link.unicast_ns", true, 2}, {"link.fanout_ns_per_dev", false, 512}} {
		loop := sim.New(1)
		n := link.NewNetwork(loop, "drv", link.Ethernet())
		devs := make([]*link.Device, c.devices)
		for i := range devs {
			devs[i] = upDevice(loop, n, fmt.Sprintf("d%d", i))
			devs[i].SetReceiver(func(*link.Frame) {})
		}
		loop.RunFor(0)
		f := &link.Frame{Src: devs[0].HW(), Dst: devs[1].HW(), Type: link.EtherTypeIPv4, Payload: make([]byte, 60)}
		if c.devices > 2 {
			f.Dst = link.BroadcastHW
		}
		e.measure(c.metric, c.allocs, func(n int) float64 {
			for i := 0; i < n; i++ {
				_ = devs[0].Send(f) // the device is up and attached; Send cannot fail
				loop.RunFor(time.Millisecond)
			}
			return float64(n * (c.devices - 1))
		})
	}
}

func driveARP(e *driverEnv) {
	// Send through a cache that already holds the neighbour: the path
	// every data packet of a fleet takes.
	loop := sim.New(1)
	n := link.NewNetwork(loop, "drv", link.Ethernet())
	a, b := upDevice(loop, n, "a"), upDevice(loop, n, "b")
	b.SetReceiver(func(*link.Frame) {})
	loop.RunFor(0)
	self, peer := ip.Addr{10, 0, 0, 1}, ip.Addr{10, 0, 0, 2}
	cache := arp.New(loop, a, arp.Config{}, func() []ip.Addr { return []ip.Addr{self} })
	cache.AddStatic(peer, b.HW())
	e.measure("arp.send_hit_ns", false, func(n int) float64 {
		for i := 0; i < n; i++ {
			cache.SendIP(peer, bufpool.Get(60), 0)
			loop.RunFor(time.Millisecond)
		}
		return float64(n)
	})
}

func driveIP(e *driverEnv) {
	// A full TCP segment as campus_app sends it, and its encapsulation,
	// which is what the 1050-byte department MTU fragments.
	seg := &ip.Packet{
		Header:  ip.Header{TTL: 64, Protocol: ip.ProtoTCP, Src: ip.Addr{36, 135, 0, 7}, Dst: ip.Addr{36, 8, 0, 99}},
		Payload: make([]byte, ip.TCPHeaderLen+transport.MSS),
	}
	e.measure("ip.marshal_ns", false, func(n int) float64 {
		for i := 0; i < n; i++ {
			buf := bufpool.Get(seg.Len())
			if _, err := seg.MarshalInto(buf); err != nil {
				panic(err) // a well-formed constant packet
			}
			bufpool.Put(buf)
		}
		return float64(n)
	})
	raw, _ := seg.Marshal()
	e.measure("ip.unmarshal_ns", false, func(n int) float64 {
		for i := 0; i < n; i++ {
			if _, err := ip.Unmarshal(raw); err != nil {
				panic(err)
			}
		}
		return float64(n)
	})
	kb := make([]byte, 1024)
	for i := range kb {
		kb[i] = byte(i)
	}
	var sum uint16
	e.measure("ip.checksum_ns_per_kb", false, func(n int) float64 {
		for i := 0; i < n; i++ {
			sum += ip.Checksum(kb)
		}
		return float64(n)
	})
	_ = sum
	outer, err := ip.Encapsulate(ip.Addr{36, 8, 0, 100}, ip.Addr{36, 135, 0, 1}, 64, 1, seg)
	if err != nil {
		panic(err)
	}
	reasm := ip.NewReassembler()
	e.measure("ip.frag_reasm_ns", false, func(n int) float64 {
		for i := 0; i < n; i++ {
			outer.ID++
			frags, err := ip.Fragment(outer, 1050)
			if err != nil {
				panic(err)
			}
			whole := false
			for _, f := range frags {
				_, whole = reasm.Add(f)
			}
			if !whole {
				panic("perf: fragments did not reassemble")
			}
		}
		return float64(n)
	})
	e.measure("bufpool.get_put_ns", false, func(n int) float64 {
		for i := 0; i < n; i++ {
			bufpool.Put(bufpool.Get(1060))
		}
		return float64(n)
	})
}

func drivePipeline(e *driverEnv) {
	// The bare hook mechanism: one traversal of a chain of five accepting
	// hooks, the length of the stack's longest chain.
	chain := pipeline.NewChain[*int](pipeline.Forward)
	accept := func(*int) pipeline.Verdict { return pipeline.Accept }
	chain.Register(pipeline.Hook[*int]{Name: "a", Priority: 0, Fn: accept})
	chain.Register(pipeline.Hook[*int]{Name: "b", Priority: 1, Fn: accept})
	chain.Register(pipeline.Hook[*int]{Name: "c", Priority: 2, Fn: accept})
	chain.Register(pipeline.Hook[*int]{Name: "d", Priority: 3, Fn: accept})
	chain.Register(pipeline.Hook[*int]{Name: "e", Priority: 4, Fn: accept})
	x := 0
	e.measure("pipeline.chain5_ns", false, func(n int) float64 {
		for i := 0; i < n; i++ {
			chain.Run(&x)
		}
		return float64(n)
	})
}

// line is host a — router — host b on two Ethernet segments, ARP primed.
type line struct {
	loop         *sim.Loop
	a, b         *stack.Host
	addrA, addrB ip.Addr
}

func newLine() *line {
	loop := sim.New(1)
	pfxA, pfxB := ip.MustParsePrefix("10.1.0.0/16"), ip.MustParsePrefix("10.2.0.0/16")
	l := &line{loop: loop, addrA: ip.Addr{10, 1, 0, 2}, addrB: ip.Addr{10, 2, 0, 2}}
	netA := link.NewNetwork(loop, "drv-a", link.Ethernet())
	netB := link.NewNetwork(loop, "drv-b", link.Ethernet())
	r := stack.NewHost(loop, "r", stack.Config{})
	addIface(nil, r, "r-a", netA, ip.Addr{10, 1, 0, 1}, pfxA, stack.IfaceOpts{})
	addIface(nil, r, "r-b", netB, ip.Addr{10, 2, 0, 1}, pfxB, stack.IfaceOpts{})
	r.SetForwarding(true)
	l.a = stack.NewHost(loop, "a", stack.Config{})
	l.a.AddDefaultRoute(ip.Addr{10, 1, 0, 1}, addIface(nil, l.a, "eth0", netA, l.addrA, pfxA, stack.IfaceOpts{}))
	l.b = stack.NewHost(loop, "b", stack.Config{})
	l.b.AddDefaultRoute(ip.Addr{10, 2, 0, 1}, addIface(nil, l.b, "eth0", netB, l.addrB, pfxB, stack.IfaceOpts{}))
	loop.RunFor(0)
	return l
}

func driveStack(e *driverEnv) error {
	// An 11-byte datagram host to router to host: all five chains, two
	// link flights, the forward path a fleet probe takes.
	l := newLine()
	delivered := 0
	l.b.RegisterHandler(driverProto, func(*stack.Iface, *ip.Packet) { delivered++ })
	payload := []byte("scale-probe")
	send := func() error {
		return l.a.Output(&ip.Packet{Header: ip.Header{Protocol: driverProto, Dst: l.addrB}, Payload: payload})
	}
	if err := send(); err != nil { // resolves ARP on both segments
		return fmt.Errorf("stack driver: %w", err)
	}
	l.loop.RunFor(time.Second)
	sent := 1
	e.measure("stack.forward_ns", true, func(n int) float64 {
		for i := 0; i < n; i++ {
			_ = send() // the route exists; checked above
			l.loop.RunFor(2 * time.Millisecond)
		}
		sent += n
		return float64(n)
	})
	if delivered != sent {
		return fmt.Errorf("stack driver: %d of %d packets delivered", delivered, sent)
	}

	// A route decision from the cache, and one recomputed after the
	// invalidation every handoff causes.
	lookup := func() {
		if _, err := l.a.RouteLookup(l.addrB, ip.Unspecified); err != nil {
			panic(err)
		}
	}
	e.measure("stack.route_hit_ns", false, func(n int) float64 {
		for i := 0; i < n; i++ {
			lookup()
		}
		return float64(n)
	})
	e.measure("stack.route_miss_ns", false, func(n int) float64 {
		for i := 0; i < n; i++ {
			l.a.InvalidateRoutes()
			lookup()
		}
		return float64(n)
	})
	return nil
}

// driveNewHost weighs a fully provisioned resident mobile host — stack
// host, transport stack, mobile host, two attached devices — by building
// fleets the way fleet_resident does and dividing by their size.
func driveNewHost(e *driverEnv) error {
	w, err := loadWorkload("fleet_resident")
	if err != nil {
		return err
	}
	spec := *w.Fleet
	spec.Hosts, spec.Active, spec.Shards = 2048, 1, 4
	var buildErr error
	e.measure("stack.new_host_ns", false, func(n int) float64 {
		for i := 0; i < n; i++ {
			f, err := buildFleet(1, &spec, nil)
			if err != nil {
				buildErr = err
				break
			}
			f.close()
		}
		return float64(n * spec.Hosts)
	})
	if buildErr != nil {
		return buildErr
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	f, err := buildFleet(1, &spec, nil)
	if err != nil {
		return err
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	e.add("stack.host_bytes", "bytes", (float64(m1.HeapAlloc)-float64(m0.HeapAlloc))/float64(spec.Hosts))
	f.close()
	return nil
}

func driveTunnel(e *driverEnv) error {
	// A 512-byte datagram into a's tunnel interface, across the segment
	// encapsulated, out of b's: encapsulation, transit and decapsulation.
	l := newLine()
	far := ip.Addr{192, 0, 2, 1} // reached only through the tunnel; local to b
	ta := tunnel.New(l.a, "tun0",
		func() (ip.Addr, bool) { return l.addrA, true },
		func(*ip.Packet) (ip.Addr, bool) { return l.addrB, true })
	tb := tunnel.New(l.b, "tun0",
		func() (ip.Addr, bool) { return l.addrB, true },
		func(*ip.Packet) (ip.Addr, bool) { return l.addrA, true })
	l.a.Routes().Add(stack.Route{Dst: ip.Prefix{Addr: far, Bits: 32}, Iface: ta.Iface()})
	l.b.AddLocalAddr(far)
	delivered := 0
	l.b.RegisterHandler(driverProto, func(*stack.Iface, *ip.Packet) { delivered++ })
	payload := make([]byte, 512)
	send := func() error {
		return l.a.Output(&ip.Packet{Header: ip.Header{Protocol: driverProto, Src: l.addrA, Dst: far}, Payload: payload})
	}
	if err := send(); err != nil {
		return fmt.Errorf("tunnel driver: %w", err)
	}
	l.loop.RunFor(time.Second)
	sent := 1
	e.measure("tunnel.encap_decap_ns", false, func(n int) float64 {
		for i := 0; i < n; i++ {
			_ = send()
			l.loop.RunFor(3 * time.Millisecond)
		}
		sent += n
		return float64(n)
	})
	if got := tb.Stats().Decapsulated; delivered != sent || got != uint64(sent) {
		return fmt.Errorf("tunnel driver: sent %d, decapsulated %d, delivered %d", sent, got, delivered)
	}
	return nil
}

// driveCampusWorld times the operations that need the compiled Figure-5
// world: building it, a registration round trip, a DHCP acquisition.
func driveCampusWorld(e *driverEnv) error {
	w, err := loadWorkload("campus_app")
	if err != nil {
		return err
	}
	var world *scenario.World
	var buildErr error
	e.measure("scenario.parse_compile_ns", false, func(n int) float64 {
		for i := 0; i < n; i++ {
			if world != nil {
				world.Close()
			}
			spec, err := scenario.Parse(w.Campus.Scenario)
			if err == nil {
				world, err = scenario.Compile(1, spec)
			}
			if err != nil {
				buildErr = err
				break
			}
		}
		return float64(n)
	})
	if buildErr != nil {
		return buildErr
	}
	defer world.Close()
	world.Tracer.SetCapacity(4096) // thousands of registrations would otherwise pile up events

	// The mobile host on the department subnet, registered.
	mobile := world.Spec.Topology.Mobiles[0].Name
	mh, eth := world.Mobiles[mobile], world.MIfaces[mobile+"/eth0"]
	eth.Iface().Device().Detach()
	eth.Iface().Device().Attach(world.Networks["dept"])
	var connectErr error
	connected := false
	mh.ConnectForeign(eth, func(err error) { connectErr, connected = err, true })
	if !world.RunUntil(30*time.Second, func() bool { return connected }) || connectErr != nil {
		return fmt.Errorf("registration driver: connect: done=%v err=%v", connected, connectErr)
	}

	// Registration: request from the mobile host, binding update and proxy
	// ARP at the home agent, reply back.
	addrs := [2]ip.Addr{ip.MustParseAddr("36.8.0.200"), ip.MustParseAddr("36.8.0.201")}
	registered, calls := 0, 0
	e.measure("mip.registration_ns", true, func(n int) float64 {
		for i := 0; i < n; i++ {
			mh.SwitchAddress(addrs[calls%2], func(err error) {
				if err == nil {
					registered++
				}
			})
			calls++
			world.Loop.RunFor(50 * time.Millisecond)
		}
		return float64(n)
	})
	if registered != calls {
		return fmt.Errorf("registration driver: %d of %d registrations accepted", registered, calls)
	}

	// DHCP: discover, offer, request, ack for a fresh client on the
	// department subnet, then release.
	h := stack.NewHost(world.Loop, "dhcp-drv", stack.Config{})
	ifc := h.AddIface("eth0", upDevice(world.Loop, world.Networks["dept"], "dhcp-drv-eth"), ip.Unspecified, ip.Prefix{}, stack.IfaceOpts{})
	world.Loop.RunFor(0)
	client, err := dhcp.NewClient(transport.NewStack(h), ifc, dhcp.ClientConfig{})
	if err != nil {
		return err
	}
	leases, tries := 0, 0
	e.measure("dhcp.acquire_ns", false, func(n int) float64 {
		for i := 0; i < n; i++ {
			tries++
			err := client.Acquire(func(_ dhcp.Lease, err error) {
				if err == nil {
					leases++
				}
			})
			if err != nil {
				break
			}
			world.Loop.RunFor(50 * time.Millisecond)
			client.Release()
			world.Loop.RunFor(10 * time.Millisecond)
		}
		return float64(n)
	})
	if leases != tries {
		return fmt.Errorf("dhcp driver: %d of %d acquisitions succeeded", leases, tries)
	}
	return nil
}

// newPair is a line with a transport stack on each end host.
func newPair() (*line, *transport.Stack, *transport.Stack) {
	l := newLine()
	return l, transport.NewStack(l.a), transport.NewStack(l.b)
}

func driveTransport(e *driverEnv) error {
	l, tsA, tsB := newPair()
	var srv *transport.UDPSocket
	srv, err := tsB.UDP(ip.Unspecified, 7, func(d transport.Datagram) {
		srv.SendTo(d.From, d.FromPort, d.Payload)
	})
	if err != nil {
		return err
	}
	echoed := 0
	sock, err := tsA.UDP(ip.Unspecified, 0, func(transport.Datagram) { echoed++ })
	if err != nil {
		return err
	}
	probe := []byte("scale-probe")
	sock.SendTo(l.addrB, 7, probe)
	l.loop.RunFor(time.Second)
	sent := 1
	// The fleets' probe: an 11-byte datagram to an echo server and back.
	e.measure("transport.udp_echo_ns", false, func(n int) float64 {
		for i := 0; i < n; i++ {
			sock.SendTo(l.addrB, 7, probe)
			l.loop.RunFor(5 * time.Millisecond)
		}
		sent += n
		return float64(n)
	})
	if echoed != sent {
		return fmt.Errorf("udp driver: %d of %d probes echoed", echoed, sent)
	}

	// One megabyte written to an established connection, per segment the
	// receiver's transport takes in: segmentation, acknowledgment, window.
	received := 0
	if _, err := tsB.Listen(ip.Unspecified, 9, func(c *transport.Conn) {
		c.OnData = func(b []byte) { received += len(b) }
	}); err != nil {
		return err
	}
	conn, err := tsA.Connect(ip.Unspecified, l.addrB, 9)
	if err != nil {
		return err
	}
	l.loop.RunFor(time.Second)
	if !conn.Established() {
		return fmt.Errorf("tcp driver: connection not established")
	}
	bulk := make([]byte, 1<<20)
	written := 0
	var writeErr error
	e.measure("transport.tcp_segment_ns", true, func(n int) float64 {
		before := tsB.StatsSnapshot().TCPSegments
		for i := 0; i < n && writeErr == nil; i++ {
			writeErr = conn.Write(bulk)
			written += len(bulk)
			for guard := 0; received < written && guard < 600; guard++ {
				l.loop.RunFor(100 * time.Millisecond)
			}
		}
		return float64(tsB.StatsSnapshot().TCPSegments - before)
	})
	if writeErr != nil || received != written {
		return fmt.Errorf("tcp driver: wrote %d, received %d, err %v", written, received, writeErr)
	}
	return nil
}

func driveApp(e *driverEnv) error {
	l, tsA, tsB := newPair()
	if _, err := app.NewBroker(tsB, ip.Unspecified, 1883, "broker"); err != nil {
		return err
	}
	if _, err := app.NewHTTPServer(tsB, ip.Unspecified, 8080, "web", app.EchoHandler); err != nil {
		return err
	}
	pub, sub, web := app.NewClient(tsA, "pub"), app.NewClient(tsA, "sub"), app.NewHTTPClient(tsA, "web")
	up := 0
	onUp := func(err error) {
		if err == nil {
			up++
		}
	}
	for _, c := range []*app.Client{pub, sub} {
		if err := c.Connect(l.addrB, 1883, onUp); err != nil {
			return err
		}
	}
	if err := web.Connect(l.addrB, 8080, onUp); err != nil {
		return err
	}
	l.loop.RunFor(time.Second)
	delivered, acked, answered := 0, 0, 0
	if err := sub.Subscribe("drv/t", 1, func(app.Message) { delivered++ }, nil); err != nil {
		return err
	}
	l.loop.RunFor(time.Second)
	if up != 3 {
		return fmt.Errorf("app driver: %d of 3 clients connected", up)
	}

	// One QoS-1 publication of campus_app's size: publish, broker fan-out,
	// delivery to the subscriber, both acknowledgments.
	published := 0
	var opErr error
	e.measure("app.mqtt_qos1_ns", true, func(n int) float64 {
		for i := 0; i < n && opErr == nil; i++ {
			published++
			opErr = pub.Publish("drv/t", app.Payload(uint64(published), 512), 1, false, func() { acked++ })
			l.loop.RunFor(20 * time.Millisecond)
		}
		return float64(n)
	})
	if opErr != nil || delivered != published || acked != published {
		return fmt.Errorf("mqtt driver: published %d, delivered %d, acked %d, err %v", published, delivered, acked, opErr)
	}

	// One request with a 4 KB body echoed back, as campus_app's flows send.
	requests := 0
	e.measure("app.http_req_ns", false, func(n int) float64 {
		for i := 0; i < n && opErr == nil; i++ {
			requests++
			opErr = web.Do("POST", "/drv", app.Payload(uint64(requests), 4096), func(_ app.HTTPResponse, err error) {
				if err == nil {
					answered++
				}
			})
			l.loop.RunFor(50 * time.Millisecond)
		}
		return float64(n)
	})
	if opErr != nil || answered != requests {
		return fmt.Errorf("http driver: %d of %d requests answered, err %v", answered, requests, opErr)
	}
	return nil
}

func driveTelemetry(e *driverEnv) error {
	loop := sim.New(1)
	defer trace.Release(loop)
	tracer := trace.New(loop)
	tracer.SetCapacity(4096)
	e.measure("trace.span_ns", true, func(n int) float64 {
		for i := 0; i < n; i++ {
			tracer.StartSpan("drv", kDriverSpan).Done()
		}
		return float64(n)
	})
	e.measure("trace.record_ns", false, func(n int) float64 {
		for i := 0; i < n; i++ {
			tracer.Record("drv", kDriverEvent, "seq=%d", i)
		}
		return float64(n)
	})
	pktlog := metrics.NewPacketLog(loop, metrics.DefaultPacketLogLimit)
	e.measure("metrics.packetlog_record_ns", false, func(n int) float64 {
		for i := 0; i < n; i++ {
			pktlog.Record(uint64(i), "drv", "ip.output", "36.135.0.7 > 36.8.0.99 tcp len=1040")
		}
		return float64(n)
	})
	// A snapshot of a thousand counters, per row: campus_app's registry
	// holds a few hundred, a fleet's hundreds of thousands.
	reg := metrics.New(loop)
	for i := 0; i < 1000; i++ {
		reg.Counter("drv.counter", metrics.L("host", fmt.Sprintf("h%04d", i))).Add(uint64(i))
	}
	rows := len(reg.Snapshot().Metrics) // the counters plus the loop's own rows
	e.measure("metrics.snapshot_ns_per_row", false, func(n int) float64 {
		for i := 0; i < n; i++ {
			rows = len(reg.Snapshot().Metrics)
		}
		return float64(n * rows)
	})
	return nil
}

// driveTelemetryOverhead runs a 200-host slice of fleet_roam with registry,
// packet log and tracer all on and with all off: what the telemetry costs
// where it is busiest relative to the work.
func driveTelemetryOverhead(e *driverEnv) error {
	w, err := loadWorkload("fleet_roam")
	if err != nil {
		return err
	}
	spec := *w.Fleet
	spec.Hosts, spec.Active, spec.Shards = 200, 200, 4
	spec.Window = scenario.Duration(2 * time.Second)
	runOnce := func(t telemetry) (time.Duration, error) {
		s := spec
		s.telemetry = t
		f, err := buildFleet(1, &s, nil)
		if err != nil {
			return 0, err
		}
		defer f.close()
		t0 := now()
		err = f.run(nil)
		f.drain()
		return since(t0), err
	}
	e.rec.begin("driver.metrics.telemetry_overhead")
	defer e.rec.end()
	// Interleaved pairs, the faster of each side kept: the ratio of two
	// short runs is otherwise mostly noise.
	pairs := 5
	if e.minTime == 0 {
		pairs = 1
	}
	var on, off time.Duration
	for i := 0; i < pairs; i++ {
		for _, side := range []struct {
			telemetry telemetry
			best      *time.Duration
		}{{telemetryAll, &on}, {telemetryOff, &off}} {
			d, err := runOnce(side.telemetry)
			if err != nil {
				return err
			}
			if *side.best == 0 || d < *side.best {
				*side.best = d
			}
		}
	}
	e.add("metrics.telemetry_overhead_share", "ratio", on.Seconds()/off.Seconds()-1)
	return nil
}
