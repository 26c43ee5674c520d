package testbed

import (
	"fmt"
	"strings"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/metrics"
	"mosquitonet/internal/mip"
	"mosquitonet/internal/scenario"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/stack"
	"mosquitonet/internal/transport"
)

// The scale experiment measures the simulator itself rather than the
// paper's protocol: N mobile hosts roam concurrently between two foreign
// subnets while exchanging UDP echo traffic with correspondents. It is
// the regime where per-event and per-packet costs dominate, so it doubles
// as the fleet-scale performance baseline: BenchmarkScaleRoaming drives
// the same harness and reports wall-clock ns/op, B/op, and allocs/op on
// top of the deterministic virtual-time quantities recorded here.
//
// The topology is built for shard-parallel execution (sim.ShardSet): the
// fleet is partitioned into independent campus shards — each with its own
// home/department/campus subnets, router, collocated home agent, and a
// local correspondent — joined to a hub shard (backbone router plus a
// backbone correspondent) only by point-to-point trunks whose propagation
// delay provides the conservative lookahead. Most traffic stays inside a
// shard; every fourth probe crosses the backbone, exercising the trunk
// handoff path. The shard count is a pure function of the fleet size, so
// results are byte-identical at any worker count, including workers=1.
//
// Telemetry configuration is deliberately asymmetric with the Figure 5
// testbed: per-shard metrics registries are enabled (the export needs
// counters, merged deterministically at the end) but the packet-lifecycle
// log is NOT. A fleet-scale perf run cannot afford per-hop trace records,
// and running without a packet log also exercises every layer's
// disabled-telemetry path.

// Scale experiment shape, read from the scale scenario spec
// (testdata/scenarios/scale.json). Kept modest so one fleet fits a CI
// smoke run; the event count still reaches the millions at 1000 hosts
// because every frame on a shared Ethernet segment fans out to all
// attached devices. The scale spec declares no costs: the fleet's routers,
// home agents, correspondents and mobile hosts are Figure 5 machines, and
// buildScaleFleetSilent reads their per-packet costs from the figure5 spec
// (scaleCalib) instead of restating them. Two restatements remain:
// faultdemo.json, a standalone topology the scenario package's tests parse
// without the catalog, and the benchmark's frozen campus_app workload.
var (
	scaleFleetSpec = MustScenario("scale").Topology.Fleet
	scaleCalib     = MustScenario("figure5").Topology
)

var (
	scaleDuration      = scaleFleetSpec.Duration.D()      // virtual runtime per fleet
	scaleSwitchPeriod  = scaleFleetSpec.SwitchPeriod.D()  // roam cadence per host
	scaleProbeInterval = scaleFleetSpec.ProbeInterval.D() // echo probe cadence per host
	scaleProbeStart    = scaleFleetSpec.ProbeStart.D()
	scaleCrossEvery    = scaleFleetSpec.CrossEvery // every Nth probe targets the backbone correspondent
	scaleStagger       = scaleFleetSpec.Stagger.D()
)

// scaleShardCount maps fleet size to the number of campus shards (the hub
// shard comes on top). Derived from topology size only — never from the
// worker count — so shard assignment, per-shard seeds, and results are
// identical no matter how many goroutines execute the shards. The upper
// tiers keep per-shard fleets in the low thousands: at 100k hosts, 64
// campus shards of ~1560 hosts each.
func scaleShardCount(n int) int {
	switch {
	case n >= 65536:
		return 64
	case n >= 16384:
		return 32
	case n >= 1024:
		return 16
	case n >= 256:
		return 8
	case n >= 64:
		return 4
	case n >= 16:
		return 2
	default:
		return 1
	}
}

// ScaleRow is one fleet size's deterministic outcome. Every field derives
// from virtual time and seeded randomness only, so BENCH_scale.json is
// byte-identical across runs with the same seed at any worker count.
type ScaleRow struct {
	Hosts            int     `json:"hosts"`
	Shards           int     `json:"shards"`
	Events           uint64  `json:"events"`
	VirtualSeconds   float64 `json:"virtual_seconds"`
	EventsPerVirtSec float64 `json:"events_per_virtual_second"`
	QueueHighWater   int     `json:"queue_high_water"`
	Epochs           uint64  `json:"epochs"`
	CrossFrames      uint64  `json:"cross_shard_frames"`
	Registrations    uint64  `json:"registrations"`
	ProbesSent       uint64  `json:"probes_sent"`
	ProbesEchoed     uint64  `json:"probes_echoed"`
	Encapsulated     uint64  `json:"encapsulated"`
}

// ScaleResult is the full scale experiment: one row per fleet size.
type ScaleResult struct {
	Rows []ScaleRow
	*Export
}

func (r *ScaleResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scale: concurrent roaming fleets (%v virtual per fleet)\n", scaleDuration)
	fmt.Fprintf(&b, "  %6s  %6s  %10s  %12s  %8s  %6s  %7s  %7s\n",
		"hosts", "shards", "events", "ev/virt-sec", "queue-hw", "regs", "probes", "echoed")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %6d  %6d  %10d  %12.0f  %8d  %6d  %7d  %7d\n",
			row.Hosts, row.Shards, row.Events, row.EventsPerVirtSec, row.QueueHighWater,
			row.Registrations, row.ProbesSent, row.ProbesEchoed)
	}
	return b.String()
}

// RunScaleWorkers runs the scale experiment with the given worker-pool
// size. Results are byte-identical at any worker count; only wall-clock
// time may differ.
func RunScaleWorkers(seed int64, fleets []int, workers int) (*ScaleResult, error) {
	for _, n := range fleets {
		if err := scaleFleetFits(n); err != nil {
			return nil, err
		}
	}
	res := &ScaleResult{Export: &Export{Experiment: "scale", Seed: seed}}
	for _, n := range fleets {
		row, snap, err := RunScaleFleetWorkers(seed, n, workers)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
		res.Export.Snapshots = append(res.Export.Snapshots, snap)
	}
	res.Export.Rows = res.Rows
	return res, nil
}

// scaleAddr spreads host i across the low octets of a /16, skipping the
// .0 host octet range where the infrastructure (router, correspondent)
// lives.
func scaleAddr(pfx ip.Prefix, i int) ip.Addr {
	return ip.Addr{pfx.Addr[0], pfx.Addr[1], byte(1 + i/200), byte(1 + i%200)}
}

// scaleAddrHosts is how many hosts scaleAddr can number before its third
// octet wraps.
const scaleAddrHosts = 200 * 255

// scaleFleetFits refuses an n-host fleet whose largest shard slice holds
// more hosts than scaleAddr can number: past that, hosts would take the
// router's and the correspondent's addresses.
func scaleFleetFits(n int) error {
	shards := scaleShardCount(n)
	if per := (n + shards - 1) / shards; per > scaleAddrHosts {
		return fmt.Errorf("scale: fleet of %d puts %d hosts on one of its %d shards, past the %d a shard's /16 addresses", n, per, shards, scaleAddrHosts)
	}
	return nil
}

// Fixed backbone addressing: the hub shard's subnet and its well-known
// occupants.
var (
	scaleBackbonePfx = ip.Prefix{Addr: ip.Addr{10, 200, 0, 0}, Bits: 16}
	scaleHubAddr     = ip.Addr{10, 200, 0, 1}
	scaleBackboneCH  = ip.Addr{10, 200, 0, 7}
)

// scaleShardPrefix returns shard k's subnet plane: which = 0 home,
// 1 department, 2 campus.
func scaleShardPrefix(k, which int) ip.Prefix {
	return ip.Prefix{Addr: ip.Addr{10, byte(10 + 3*k + which), 0, 0}, Bits: 16}
}

func scaleRouterAddr(k, which int) ip.Addr {
	a := scaleShardPrefix(k, which).Addr
	a[3] = 1
	return a
}

// scaleMH is one mobile host of the fleet with its two managed foreign
// interfaces and its probe socket.
type scaleMH struct {
	m    *mip.MobileHost
	mis  [2]*mip.ManagedIface
	sock *transport.UDPSocket
}

// scaleFleet is a fully constructed (but not yet run) scale topology. The
// split between construction and execution exists so the footprint
// benchmark can weigh a resident fleet without running it.
type scaleFleet struct {
	n         int
	numShards int
	loops     []*sim.Loop
	regs      []*metrics.Registry
	ss        *sim.ShardSet

	// Per-shard counters, indexed by shard so each is written only by its
	// own shard's goroutine during epochs.
	probesSent   []uint64
	probesEchoed []uint64

	fleet []*scaleMH
	has   []*mip.HomeAgent
	// hosts collects every stack host in deterministic construction order.
	hosts []*stack.Host
}

// RunScaleFleetWorkers runs one fleet of n roaming mobile hosts on a
// sharded topology executed by the given number of worker goroutines, and
// returns its deterministic row plus a compact metrics snapshot (loop-
// level metrics only, merged across shards; a full per-host snapshot at
// 1000 hosts would dwarf the export).
func RunScaleFleetWorkers(seed int64, n, workers int) (ScaleRow, *metrics.Snapshot, error) {
	fl, err := buildScaleFleet(seed, n, workers, scaleDuration)
	if err != nil {
		return ScaleRow{}, nil, err
	}

	fl.ss.RunFor(scaleDuration)
	return fl.row(), fl.snapshot(), nil
}

// scaleSlot is the start-time gap between consecutive hosts of an n-host
// fleet: the spec's stagger, narrowed so the whole fleet starts within one
// switch period and every host roams twice inside the spec's duration.
// Fleets up to switch_period/stagger hosts (13,333) keep the spec's stagger.
func scaleSlot(n int) time.Duration {
	return min(scaleStagger, scaleSwitchPeriod/time.Duration(n))
}

// buildScaleFleet constructs the sharded scale topology for n mobile
// hosts without running it: campus shards joined to a hub shard by
// point-to-point trunks, a roam/probe schedule per host that runs for
// duration, and per-shard metrics registries.
func buildScaleFleet(seed int64, n, workers int, duration time.Duration) (*scaleFleet, error) {
	return buildScaleFleetSilent(seed, n, workers, 0, duration)
}

// buildScaleFleetSilent is buildScaleFleet with the last silentCampuses
// campus shards left without any mobile hosts. A silent campus keeps its
// full infrastructure (router, home agent, correspondent, trunk) but
// generates no events, so it exercises per-shard skipping: the shard must
// sit out every epoch without perturbing the others.
func buildScaleFleetSilent(seed int64, n, workers, silentCampuses int, duration time.Duration) (*scaleFleet, error) {
	numFleet := scaleShardCount(n)
	if silentCampuses >= numFleet {
		return nil, fmt.Errorf("testbed: %d silent campuses leaves no shard to host the fleet (%d campus shards)", silentCampuses, numFleet)
	}
	numActive := numFleet - silentCampuses
	numShards := numFleet + 1
	hub := numFleet // the hub shard's index

	loops := make([]*sim.Loop, numShards)
	regs := make([]*metrics.Registry, numShards)
	for k := range loops {
		loops[k] = sim.New(sim.ShardSeed(seed+int64(n), k))
		regs[k] = metrics.Enable(loops[k])
	}

	trunk := link.Backbone()
	ss := sim.NewShardSet(loops, trunk.MinLatency())
	ss.SetWorkers(workers)
	metrics.RegisterShardSet(ss, regs)

	var hosts []*stack.Host

	// Figure 5's router, correspondent and mobile host costs. Fleet
	// mobiles keep zero configure, route-change and bring-up delays.
	figRouter, figMH := scaleCalib.Routers[0], scaleCalib.Mobiles[0]
	routerCfg := stack.Config{
		InputDelay:   figRouter.Delays.Input.D(),
		OutputDelay:  figRouter.Delays.Output.D(),
		ForwardDelay: figRouter.Delays.Forward.D(),
	}
	chDelay := hostDelay(scaleCalib.Hosts, "ch")
	hostCfg := stack.Config{InputDelay: chDelay, OutputDelay: chDelay}
	mhCfg := stack.Config{InputDelay: figMH.Delay.D(), OutputDelay: figMH.Delay.D()}

	// Hub shard: backbone router plus the cross-shard correspondent.
	hubLoop := loops[hub]
	backboneNet := link.NewNetwork(hubLoop, "scale-backbone", link.Ethernet())
	hubRouter := stack.NewHost(hubLoop, "hub", routerCfg)
	scenario.AddRouterIface(hubRouter, backboneNet, scaleHubAddr, scaleBackbonePfx, stack.IfaceOpts{})
	hubRouter.SetForwarding(true)
	hosts = append(hosts, hubRouter)

	probesSent := make([]uint64, numShards)
	probesEchoed := make([]uint64, numShards)

	bbCH, _ := scenario.AttachEndHost(stack.NewHost(hubLoop, "bb-ch", hostCfg), backboneNet, "bb-ch-eth",
		scaleBackboneCH, scaleBackbonePfx, scaleHubAddr, stack.IfaceOpts{})
	if _, err := bbCH.Echo(ip.Unspecified, 7); err != nil {
		return nil, err
	}
	hosts = append(hosts, bbCH.Host())

	fleet := make([]*scaleMH, 0, n)
	has := make([]*mip.HomeAgent, 0, numFleet)
	slot := scaleSlot(n)

	for k := 0; k < numFleet; k++ {
		k := k
		loop := loops[k]
		homePfx := scaleShardPrefix(k, 0)
		deptPfx := scaleShardPrefix(k, 1)
		campusPfx := scaleShardPrefix(k, 2)
		routerHome := scaleRouterAddr(k, 0)
		routerDept := scaleRouterAddr(k, 1)
		routerCampus := scaleRouterAddr(k, 2)
		chLocal := deptPfx.Addr
		chLocal[3] = 7

		homeNet := link.NewNetwork(loop, fmt.Sprintf("scale-home%d", k), link.Ethernet())
		deptNet := link.NewNetwork(loop, fmt.Sprintf("scale-dept%d", k), link.Ethernet())
		campusNet := link.NewNetwork(loop, fmt.Sprintf("scale-campus%d", k), link.Ethernet())

		// Shard router with the home agent collocated, as in the Figure 5
		// testbed.
		router := stack.NewHost(loop, fmt.Sprintf("router%d", k), routerCfg)
		homeIfc := scenario.AddRouterIface(router, homeNet, routerHome, homePfx, stack.IfaceOpts{})
		scenario.AddRouterIface(router, deptNet, routerDept, deptPfx, stack.IfaceOpts{})
		scenario.AddRouterIface(router, campusNet, routerCampus, campusPfx, stack.IfaceOpts{})
		router.SetForwarding(true)
		hosts = append(hosts, router)
		ha, err := mip.NewHomeAgent(transport.NewStack(router), mip.HomeAgentConfig{
			HomeIface:       homeIfc,
			HomePrefix:      homePfx,
			ProcessingDelay: figRouter.HomeAgent.Processing.D(),
		})
		if err != nil {
			return nil, err
		}
		has = append(has, ha)

		// Trunk to the hub: one single-device stub network per side, with
		// transmit handed off across the shard boundary at the barrier.
		trunkPfx := ip.Prefix{Addr: ip.Addr{10, 250, byte(k), 0}, Bits: 24}
		hubSide := ip.Addr{10, 250, byte(k), 1}
		shardSide := ip.Addr{10, 250, byte(k), 2}
		shardTrunkNet := link.NewNetwork(loop, fmt.Sprintf("scale-trunk%d-s", k), trunk)
		hubTrunkNet := link.NewNetwork(hubLoop, fmt.Sprintf("scale-trunk%d-h", k), trunk)
		shardTrunkNet.SetHandoff(func(f *link.Frame, at sim.Time) {
			ss.Post(k, hub, at, func() { hubTrunkNet.DeliverLocal(f) })
		})
		hubTrunkNet.SetHandoff(func(f *link.Frame, at sim.Time) {
			ss.Post(hub, k, at, func() { shardTrunkNet.DeliverLocal(f) })
		})
		trunkIfc := scenario.AddRouterIface(router, shardTrunkNet, shardSide, trunkPfx, stack.IfaceOpts{PointToPoint: true})
		hubIfc := scenario.AddRouterIface(hubRouter, hubTrunkNet, hubSide, trunkPfx, stack.IfaceOpts{PointToPoint: true})
		router.AddDefaultRoute(hubSide, trunkIfc)
		for _, pfx := range []ip.Prefix{homePfx, deptPfx, campusPfx} {
			hubRouter.Routes().Add(stack.Route{Dst: pfx, Gateway: shardSide, Iface: hubIfc})
		}

		// Local correspondent: a UDP echo service on the department subnet.
		chName := fmt.Sprintf("ch%d", k)
		ch, _ := scenario.AttachEndHost(stack.NewHost(loop, chName, hostCfg), deptNet, chName+"-eth",
			chLocal, deptPfx, routerDept, stack.IfaceOpts{})
		if _, err := ch.Echo(ip.Unspecified, 7); err != nil {
			return nil, err
		}
		hosts = append(hosts, ch.Host())

		// This shard's slice of the fleet, contiguous in global host index.
		// Silent campuses (k >= numActive) take an empty slice.
		lo, hi := 0, 0
		if k < numActive {
			lo, hi = k*n/numActive, (k+1)*n/numActive
		}
		for i := lo; i < hi; i++ {
			j := i - lo
			h := stack.NewHost(loop, fmt.Sprintf("mh%04d", i), mhCfg)
			ts := transport.NewStack(h)
			m := mip.NewMobileHost(ts, mip.MobileHostConfig{
				HomeAddr:   scaleAddr(homePfx, j),
				HomePrefix: homePfx,
				HomeAgent:  routerHome,
				Lifetime:   figMH.Lifetime.D(),
			})
			sm := &scaleMH{m: m}
			for d, net := range []*link.Network{deptNet, campusNet} {
				dev := link.NewDevice(loop, fmt.Sprintf("eth%d", d), 0, 0)
				dev.Attach(net)
				pfx, gw := deptPfx, routerDept
				if d == 1 {
					pfx, gw = campusPfx, routerCampus
				}
				mi, err := m.AddInterface(fmt.Sprintf("eth%d", d), dev, false, &mip.StaticConfig{
					Addr:    scaleAddr(pfx, j),
					Prefix:  pfx,
					Gateway: gw,
				})
				if err != nil {
					return nil, err
				}
				sm.mis[d] = mi
			}
			sock, err := ts.UDP(ip.Unspecified, 0, func(transport.Datagram) { probesEchoed[k]++ })
			if err != nil {
				return nil, err
			}
			sm.sock = sock
			fleet = append(fleet, sm)
			hosts = append(hosts, h)

			// Roam: each host attaches to the department net, then
			// alternates between the two foreign subnets on a fixed
			// cadence. Starts are staggered so registrations are a
			// stream, not a lockstep burst. Timers are self-chaining —
			// each firing schedules the next — so a resident fleet
			// holds one pending roam and one pending probe event per
			// host instead of the whole 8-second schedule; at 100k
			// hosts that is the difference between a few hundred
			// thousand queued events and several million.
			stagger := time.Duration(i) * slot
			roamR := 0
			var roam func()
			roam = func() {
				sm.m.ConnectForeign(sm.mis[roamR%2], nil)
				roamR++
				if time.Duration(roamR)*scaleSwitchPeriod < duration {
					loop.Schedule(scaleSwitchPeriod, roam)
				}
			}
			loop.Schedule(stagger, roam)
			// Probes: mostly to the shard-local correspondent; every
			// scaleCrossEvery-th crosses the backbone trunk to the hub's.
			probeP := 0
			var probe func()
			probe = func() {
				dst := chLocal
				if probeP%scaleCrossEvery == scaleCrossEvery-1 {
					dst = scaleBackboneCH
				}
				probesSent[k]++
				sm.sock.SendTo(dst, 7, []byte("scale-probe"))
				probeP++
				if scaleProbeStart+time.Duration(probeP)*scaleProbeInterval < duration {
					loop.Schedule(scaleProbeInterval, probe)
				}
			}
			loop.Schedule(stagger+scaleProbeStart, probe)
		}
	}

	return &scaleFleet{
		n:            n,
		numShards:    numShards,
		loops:        loops,
		regs:         regs,
		ss:           ss,
		probesSent:   probesSent,
		probesEchoed: probesEchoed,
		fleet:        fleet,
		has:          has,
		hosts:        hosts,
	}, nil
}

// row collects the fleet's deterministic outcome after the run.
func (f *scaleFleet) row() ScaleRow {
	row := ScaleRow{
		Hosts:            f.n,
		Shards:           f.numShards,
		Events:           f.ss.Executed(),
		VirtualSeconds:   scaleDuration.Seconds(),
		EventsPerVirtSec: float64(f.ss.Executed()) / scaleDuration.Seconds(),
		QueueHighWater:   f.ss.QueueHighWater(),
		Epochs:           f.ss.Epochs(),
		CrossFrames:      f.ss.CrossDelivered(),
	}
	for k := 0; k < f.numShards; k++ {
		row.ProbesSent += f.probesSent[k]
		row.ProbesEchoed += f.probesEchoed[k]
	}
	for _, sm := range f.fleet {
		row.Registrations += sm.m.Stats().Registrations
		row.Encapsulated += sm.m.Tunnel().Stats().Encapsulated
	}
	for _, ha := range f.has {
		row.Encapsulated += ha.Tunnel().Stats().Encapsulated
	}
	return row
}

// snapshot merges the per-shard registries into the compact export
// snapshot: loop-level aggregates (sim.loop.*) plus the per-shard barrier
// counters (sim.shard.*). The name filter runs before rows materialize
// (MergedSnapshotFiltered), so a 100k-host fleet never builds the
// hundreds of thousands of per-host rows it is about to throw away.
func (f *scaleFleet) snapshot() *metrics.Snapshot {
	snap := metrics.MergedSnapshotFiltered(f.ss.Now(), func(name string) bool {
		return strings.HasPrefix(name, "sim.")
	}, f.regs...)
	snap.Name = fmt.Sprintf("scale-%dhosts", f.n)
	return snap
}
