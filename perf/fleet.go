package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/metrics"
	"mosquitonet/internal/mip"
	"mosquitonet/internal/scenario"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/stack"
	"mosquitonet/internal/trace"
	"mosquitonet/internal/transport"
)

// The fleet workloads run a sharded roaming fleet: campus shards, each with
// home, department and campus subnets, a router with the home agent
// collocated and a local echo correspondent, joined to a hub shard by
// point-to-point trunks. The builder follows the scale experiment's
// (internal/testbed) but is owned by the benchmark, so its inputs stay
// fixed while that experiment evolves, and it differs in three ways: the
// resident fleet may be larger than the active one, every active host
// starts inside a stagger scaled to the fleet, and each host's probes sit
// half an interval away from its own roams, so no probe falls into a
// registration window and every one is echoed.

// fleetSpec is the "fleet" block of a workload file: what differs between
// the fleet workloads. What they share is the constants below.
type fleetSpec struct {
	Hosts  int `json:"hosts"`  // resident mobile hosts
	Active int `json:"active"` // evenly spread subset that roams and probes
	Shards int `json:"shards"` // campus shards; the hub shard comes on top

	Window        scenario.Duration `json:"window"`
	Stagger       scenario.Duration `json:"stagger"` // first attaches spread over this
	RoamPeriod    scenario.Duration `json:"roam_period"`
	ProbeInterval scenario.Duration `json:"probe_interval"`

	// parallel runs the shards on parWorkers() workers instead of one. It
	// is not in the file: loadWorkload sets it for a name ending in "_par".
	parallel bool
	// telemetry is what the world records about itself. Every workload
	// runs with the registries; only the telemetry-overhead driver differs.
	telemetry telemetry
}

type telemetry int

const (
	telemetryRegistry telemetry = iota // per-shard metrics registries, as the scale experiment runs
	telemetryAll                       // plus packet log and tracer
	telemetryOff
)

// What every fleet shares, as the scale experiment has it.
const (
	barrierGroupSize = 8 // campus shards per barrier group
	crossEvery       = 4 // every fourth probe crosses the backbone
	fleetDrain       = 500 * time.Millisecond

	routerInputDelay   = 250 * time.Microsecond
	routerOutputDelay  = 230 * time.Microsecond
	routerForwardDelay = 200 * time.Microsecond
	mobileDelay        = 1210 * time.Microsecond
	hostDelay          = 300 * time.Microsecond
	haProcessing       = 1480 * time.Microsecond
	regLifetime        = time.Minute
)

func (s *fleetSpec) validate() error {
	switch {
	case s.Shards < 1 || s.Shards > 60:
		return fmt.Errorf("fleet: shards must be 1..60")
	case s.Active < 1 || s.Active > s.Hosts:
		return fmt.Errorf("fleet: active must be 1..hosts")
	case (s.Hosts+s.Shards-1)/s.Shards > 40000:
		return fmt.Errorf("fleet: more than 40000 hosts per shard do not fit its /16")
	case s.ProbeInterval <= 0 || s.RoamPeriod <= 0 || (s.RoamPeriod%s.ProbeInterval != 0 && s.ProbeInterval%s.RoamPeriod != 0):
		return fmt.Errorf("fleet: one of roam_period and probe_interval must be a multiple of the other, so probes stay clear of roams")
	case s.Window%scenario.Duration(sliceLen) != 0 || s.Window <= 0:
		return fmt.Errorf("fleet: window must be a positive multiple of %v", sliceLen)
	}
	return nil
}

// parWorkers is the worker-pool size of a parallel run on this machine.
// Below 2 there is no parallel run to measure; callers skip it.
func parWorkers() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// workers is the shard worker-pool size the spec asks for.
func (s *fleetSpec) workers() int {
	if s.parallel {
		return parWorkers()
	}
	return 1
}

// fleetHost is one active mobile host with its two foreign interfaces.
type fleetHost struct {
	shard int
	m     *mip.MobileHost
	mis   [2]*mip.ManagedIface
	sock  *transport.UDPSocket
}

// shardTotals holds one shard's workload-side counters. Each is written
// only by the goroutine running that shard.
type shardTotals struct {
	probesSent, probesEchoed     uint64
	handoffsStarted, handoffErrs int
	handoffs                     []time.Duration
}

// fleet is a built fleet world.
type fleet struct {
	spec   *fleetSpec
	loops  []*sim.Loop
	regs   []*metrics.Registry
	ss     *sim.ShardSet
	totals []shardTotals

	nets       []*link.Network
	hosts      []*stack.Host // every stack host, in construction order
	stacks     []*transport.Stack
	residents  []*mip.MobileHost
	active     []*fleetHost
	homeAgents []*mip.HomeAgent
	packetLogs []*metrics.PacketLog
	tracers    []*trace.Tracer
}

func shardPrefix(k, which int) ip.Prefix {
	return ip.Prefix{Addr: ip.Addr{10, byte(10 + 3*k + which), 0, 0}, Bits: 16}
}

func routerAddr(k, which int) ip.Addr {
	a := shardPrefix(k, which).Addr
	a[3] = 1
	return a
}

// hostAddr spreads host j of a shard across the low octets of its /16,
// clear of the .0 range the infrastructure lives in.
func hostAddr(pfx ip.Prefix, j int) ip.Addr {
	return ip.Addr{pfx.Addr[0], pfx.Addr[1], byte(1 + j/200), byte(1 + j%200)}
}

// upDevice attaches a new device to n and brings it up.
func upDevice(loop *sim.Loop, n *link.Network, name string) *link.Device {
	d := link.NewDevice(loop, name, 0, 0)
	d.Attach(n)
	d.BringUp(nil)
	return d
}

// addIface gives h an up device on n with addr, and its connected route.
func addIface(rec *recorder, h *stack.Host, name string, n *link.Network, addr ip.Addr, pfx ip.Prefix, opts stack.IfaceOpts) *stack.Iface {
	t := rec.tick()
	d := upDevice(h.Loop(), n, name)
	rec.lap("setup.link", t)
	t = rec.tick()
	ifc := h.AddIface(name, d, addr, pfx, opts)
	h.ConnectRoute(ifc)
	rec.lap("setup.stack", t)
	return ifc
}

func buildFleet(seed int64, spec *fleetSpec, rec *recorder) (*fleet, error) {
	numShards := spec.Shards + 1
	hub := spec.Shards
	f := &fleet{spec: spec, totals: make([]shardTotals, numShards)}

	t := rec.tick()
	f.loops = make([]*sim.Loop, numShards)
	for k := range f.loops {
		f.loops[k] = sim.New(sim.ShardSeed(seed, k))
	}
	trunk := link.Backbone()
	f.ss = sim.NewShardSet(f.loops, trunk.MinLatency())
	f.ss.SetWorkers(spec.workers())
	var groups [][]int
	for lo := 0; lo < spec.Shards; lo += barrierGroupSize {
		var g []int
		for i := lo; i < lo+barrierGroupSize && i < spec.Shards; i++ {
			g = append(g, i)
		}
		groups = append(groups, g)
	}
	f.ss.SetGroups(append(groups, []int{hub}))
	rec.lap("setup.sim", t)

	t = rec.tick()
	if spec.telemetry != telemetryOff {
		f.regs = make([]*metrics.Registry, numShards)
		for k, lp := range f.loops {
			f.regs[k] = metrics.Enable(lp)
		}
		metrics.RegisterShardSet(f.ss, f.regs)
	}
	if spec.telemetry == telemetryAll {
		for _, lp := range f.loops {
			f.packetLogs = append(f.packetLogs, metrics.TracePackets(lp, 0))
			f.tracers = append(f.tracers, trace.New(lp))
		}
	}
	rec.lap("setup.metrics", t)
	tracerOf := func(k int) *trace.Tracer {
		if f.tracers == nil {
			return nil
		}
		return f.tracers[k]
	}

	routerCfg := stack.Config{
		InputDelay:   routerInputDelay,
		OutputDelay:  routerOutputDelay,
		ForwardDelay: routerForwardDelay,
	}
	newNet := func(lp *sim.Loop, name string, m link.Medium) *link.Network {
		t := rec.tick()
		n := link.NewNetwork(lp, name, m)
		rec.lap("setup.link", t)
		f.nets = append(f.nets, n)
		return n
	}
	newHost := func(lp *sim.Loop, name string, cfg stack.Config) *stack.Host {
		t := rec.tick()
		h := stack.NewHost(lp, name, cfg)
		rec.lap("setup.stack", t)
		f.hosts = append(f.hosts, h)
		return h
	}
	newStack := func(h *stack.Host) *transport.Stack {
		t := rec.tick()
		ts := transport.NewStack(h)
		rec.lap("setup.transport", t)
		f.stacks = append(f.stacks, ts)
		return ts
	}
	// echoHost builds a correspondent answering UDP echo on port 7.
	echoHost := func(lp *sim.Loop, n *link.Network, name string, addr ip.Addr, pfx ip.Prefix, gw ip.Addr) error {
		h := newHost(lp, name, stack.Config{InputDelay: hostDelay, OutputDelay: hostDelay})
		ifc := addIface(rec, h, "eth0", n, addr, pfx, stack.IfaceOpts{})
		h.AddDefaultRoute(gw, ifc)
		lp.RunFor(0)
		var srv *transport.UDPSocket
		srv, err := newStack(h).UDP(ip.Unspecified, 7, func(d transport.Datagram) {
			srv.SendTo(d.From, d.FromPort, d.Payload)
		})
		return err
	}

	// Hub shard: backbone router plus the cross-shard correspondent.
	hubLoop := f.loops[hub]
	backbonePfx := ip.Prefix{Addr: ip.Addr{10, 200, 0, 0}, Bits: 16}
	hubAddr, backboneCH := ip.Addr{10, 200, 0, 1}, ip.Addr{10, 200, 0, 7}
	backboneNet := newNet(hubLoop, "backbone", link.Ethernet())
	hubRouter := newHost(hubLoop, "hub", routerCfg)
	addIface(rec, hubRouter, "r-backbone", backboneNet, hubAddr, backbonePfx, stack.IfaceOpts{})
	hubRouter.SetForwarding(true)
	if err := echoHost(hubLoop, backboneNet, "bb-ch", backboneCH, backbonePfx, hubAddr); err != nil {
		return nil, err
	}

	// gen draws the per-host start jitter: the one place the seed shapes
	// the schedule rather than the simulated world's own randomness.
	gen := sim.New(seed).Rand()
	slot := spec.Stagger.D() / time.Duration(spec.Active)
	every := spec.Hosts / spec.Active
	activeIdx := 0

	for k := 0; k < spec.Shards; k++ {
		k := k
		loop := f.loops[k]
		homePfx, deptPfx, campusPfx := shardPrefix(k, 0), shardPrefix(k, 1), shardPrefix(k, 2)
		chLocal := deptPfx.Addr
		chLocal[3] = 7

		homeNet := newNet(loop, fmt.Sprintf("home%d", k), link.Ethernet())
		deptNet := newNet(loop, fmt.Sprintf("dept%d", k), link.Ethernet())
		campusNet := newNet(loop, fmt.Sprintf("campus%d", k), link.Ethernet())

		router := newHost(loop, fmt.Sprintf("router%d", k), routerCfg)
		homeIfc := addIface(rec, router, "r-home", homeNet, routerAddr(k, 0), homePfx, stack.IfaceOpts{})
		addIface(rec, router, "r-dept", deptNet, routerAddr(k, 1), deptPfx, stack.IfaceOpts{})
		addIface(rec, router, "r-campus", campusNet, routerAddr(k, 2), campusPfx, stack.IfaceOpts{})
		router.SetForwarding(true)
		t := rec.tick()
		ha, err := mip.NewHomeAgent(newStack(router), mip.HomeAgentConfig{
			HomeIface:       homeIfc,
			HomePrefix:      homePfx,
			ProcessingDelay: haProcessing,
			Tracer:          tracerOf(k),
		})
		rec.lap("setup.mip", t)
		if err != nil {
			return nil, err
		}
		f.homeAgents = append(f.homeAgents, ha)

		// Trunk to the hub: one stub network per side, transmit handed
		// across the shard boundary at the barrier.
		trunkPfx := ip.Prefix{Addr: ip.Addr{10, 250, byte(k), 0}, Bits: 24}
		hubSide, shardSide := ip.Addr{10, 250, byte(k), 1}, ip.Addr{10, 250, byte(k), 2}
		shardTrunk := newNet(loop, fmt.Sprintf("trunk%d-s", k), trunk)
		hubTrunk := newNet(hubLoop, fmt.Sprintf("trunk%d-h", k), trunk)
		shardTrunk.SetHandoff(func(fr *link.Frame, at sim.Time) {
			f.ss.Post(k, hub, at, func() { hubTrunk.DeliverLocal(fr) })
		})
		hubTrunk.SetHandoff(func(fr *link.Frame, at sim.Time) {
			f.ss.Post(hub, k, at, func() { shardTrunk.DeliverLocal(fr) })
		})
		trunkIfc := addIface(rec, router, "r-trunk", shardTrunk, shardSide, trunkPfx, stack.IfaceOpts{PointToPoint: true})
		hubIfc := addIface(rec, hubRouter, fmt.Sprintf("r-trunk%d", k), hubTrunk, hubSide, trunkPfx, stack.IfaceOpts{PointToPoint: true})
		router.AddDefaultRoute(hubSide, trunkIfc)
		for _, pfx := range []ip.Prefix{homePfx, deptPfx, campusPfx} {
			hubRouter.Routes().Add(stack.Route{Dst: pfx, Gateway: shardSide, Iface: hubIfc})
		}

		if err := echoHost(loop, deptNet, fmt.Sprintf("ch%d", k), chLocal, deptPfx, routerAddr(k, 1)); err != nil {
			return nil, err
		}

		// This shard's slice of the resident fleet, contiguous in global
		// host index.
		lo, hi := k*spec.Hosts/spec.Shards, (k+1)*spec.Hosts/spec.Shards
		for i := lo; i < hi; i++ {
			j := i - lo
			h := newHost(loop, fmt.Sprintf("mh%05d", i), stack.Config{InputDelay: mobileDelay, OutputDelay: mobileDelay})
			ts := newStack(h)
			t := rec.tick()
			m := mip.NewMobileHost(ts, mip.MobileHostConfig{
				HomeAddr:   hostAddr(homePfx, j),
				HomePrefix: homePfx,
				HomeAgent:  routerAddr(k, 0),
				Lifetime:   regLifetime,
				Tracer:     tracerOf(k),
			})
			rec.lap("setup.mip", t)
			f.residents = append(f.residents, m)
			var mis [2]*mip.ManagedIface
			for d, net := range []*link.Network{deptNet, campusNet} {
				pfx, gw := deptPfx, routerAddr(k, 1)
				if d == 1 {
					pfx, gw = campusPfx, routerAddr(k, 2)
				}
				t := rec.tick()
				dev := link.NewDevice(loop, fmt.Sprintf("eth%d", d), 0, 0)
				dev.Attach(net)
				rec.lap("setup.link", t)
				t = rec.tick()
				mis[d], err = m.AddInterface(fmt.Sprintf("eth%d", d), dev, false, &mip.StaticConfig{
					Addr: hostAddr(pfx, j), Prefix: pfx, Gateway: gw,
				})
				rec.lap("setup.mip", t)
				if err != nil {
					return nil, err
				}
			}
			if i%every != 0 || activeIdx >= spec.Active {
				continue // resident only: built and attached, never driven
			}
			fh := &fleetHost{shard: k, m: m, mis: mis}
			t = rec.tick()
			fh.sock, err = ts.UDP(ip.Unspecified, 0, func(transport.Datagram) { f.totals[k].probesEchoed++ })
			rec.lap("setup.transport", t)
			if err != nil {
				return nil, err
			}
			f.active = append(f.active, fh)
			start := time.Duration(activeIdx)*slot + time.Duration(gen.Int63n(int64(slot)+1))
			activeIdx++
			f.schedule(fh, start, chLocal, backboneCH)
		}
	}
	if len(f.active) != spec.Active {
		return nil, fmt.Errorf("fleet: built %d active hosts, want %d", len(f.active), spec.Active)
	}
	return f, nil
}

// schedule arms one host's roams and probes, open loop in virtual time:
// roams at start + r·RoamPeriod, alternating between the two foreign
// subnets, and probes every ProbeInterval, offset by half the shorter of
// the two periods so none comes nearer a roam than that, every
// crossEvery-th one to the backbone correspondent. The timers chain, so a
// host holds one pending roam and one pending probe, not its whole
// schedule.
func (f *fleet) schedule(fh *fleetHost, start time.Duration, chLocal, backboneCH ip.Addr) {
	spec, loop, tot := f.spec, f.loops[fh.shard], &f.totals[fh.shard]
	window := spec.Window.D()

	roams := 0
	var roam func()
	roam = func() {
		mi := fh.mis[roams%2]
		roams++
		began := loop.Now()
		tot.handoffsStarted++
		fh.m.ConnectForeign(mi, func(err error) {
			if err != nil {
				tot.handoffErrs++
				return
			}
			tot.handoffs = append(tot.handoffs, loop.Now().Sub(began))
		})
		if start+time.Duration(roams)*spec.RoamPeriod.D() < window {
			loop.Schedule(spec.RoamPeriod.D(), roam)
		}
	}
	loop.Schedule(start, roam)

	offset := spec.ProbeInterval.D() / 2
	if spec.RoamPeriod < spec.ProbeInterval {
		offset = spec.RoamPeriod.D() / 2
	}
	first := start + offset
	probes := 0
	var probe func()
	probe = func() {
		dst := chLocal
		if probes%crossEvery == crossEvery-1 {
			dst = backboneCH
		}
		tot.probesSent++
		fh.sock.SendTo(dst, 7, []byte("scale-probe"))
		probes++
		if first+time.Duration(probes)*spec.ProbeInterval.D() < window {
			loop.Schedule(spec.ProbeInterval.D(), probe)
		}
	}
	if first < window {
		loop.Schedule(first, probe)
	}
}

func (f *fleet) run(clk *runClock) error {
	for done := time.Duration(0); done < f.spec.Window.D(); done += sliceLen {
		clk.step("run.slice", func() { f.ss.RunFor(sliceLen) })
	}
	return nil
}

func (f *fleet) drain() { f.ss.RunFor(fleetDrain) }

func (f *fleet) collect(rec *recorder) outcome {
	out := outcome{VirtualEnd: f.ss.Now(), Workers: f.ss.Workers()}
	for _, b := range f.ss.WorkerBusy() {
		out.WorkerBusy += b
	}

	var t tally
	t.events, t.queueHighWater = f.ss.Executed(), uint64(f.ss.QueueHighWater())
	t.epochs, t.crossPosts = f.ss.Epochs(), f.ss.CrossDelivered()
	for k := range f.loops {
		t.epochsSkipped += f.ss.ShardStats(k).EpochsSkipped
	}
	for _, n := range f.nets {
		t.addNetwork(n)
	}
	for _, h := range f.hosts {
		t.addHost(h)
	}
	for _, ts := range f.stacks {
		t.addTransport(ts)
	}
	for _, m := range f.residents {
		t.addMobile(m)
	}
	for _, ha := range f.homeAgents {
		t.addHomeAgent(ha)
	}
	rec.begin("collect.trace.export")
	for _, tr := range f.tracers {
		t.traceEvents += uint64(len(tr.Events()))
		t.traceSpans += uint64(len(tr.Spans()))
		t.traceDropped += tr.Dropped() + tr.DroppedSpans()
	}
	for _, pl := range f.packetLogs {
		t.packetLogEvents += uint64(pl.Len())
		t.packetLogEvicted += pl.Evicted()
	}
	rec.end()
	// The snapshot the scale experiment exports: loop- and shard-level
	// rows only, filtered before the per-host rows materialize.
	rec.begin("collect.metrics.snapshot")
	if f.regs != nil {
		snap := metrics.MergedSnapshotFiltered(f.ss.Now(), func(name string) bool {
			return strings.HasPrefix(name, "sim.")
		}, f.regs...)
		t.snapshotRows = uint64(len(snap.Metrics))
	}
	rec.end()
	out.Counts = t.counts()

	probes := flowTotal{Name: "udp/probe"}
	for k := range f.totals {
		tot := &f.totals[k]
		probes.Sent += tot.probesSent
		probes.Received += tot.probesEchoed
		out.HandoffsStarted += tot.handoffsStarted
		out.Handoffs = append(out.Handoffs, tot.handoffs...)
		if tot.handoffErrs > 0 {
			out.Violations = append(out.Violations, fmt.Sprintf("shard %d: %d handoffs returned an error", k, tot.handoffErrs))
		}
	}
	sort.Slice(out.Handoffs, func(i, j int) bool { return out.Handoffs[i] < out.Handoffs[j] })
	out.Flows = []flowTotal{probes}
	if probes.Received != probes.Sent {
		out.Violations = append(out.Violations, fmt.Sprintf("%d of %d probes were not echoed", probes.Sent-probes.Received, probes.Sent))
	}
	if n := out.HandoffsStarted - len(out.Handoffs); n > 0 {
		out.Violations = append(out.Violations, fmt.Sprintf("%d handoffs never completed", n))
	}
	stale := 0
	for _, fh := range f.active {
		b, ok := f.homeAgents[fh.shard].Binding(fh.m.HomeAddr())
		if !ok || b.CareOf != fh.m.CareOf() {
			stale++
		}
	}
	if stale > 0 {
		out.Violations = append(out.Violations, fmt.Sprintf("%d hosts' home-agent binding differs from their care-of address", stale))
	}
	return out
}

func (f *fleet) close() {
	for _, lp := range f.loops {
		metrics.Release(lp)
		trace.Release(lp)
	}
}
