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
	"mosquitonet/internal/stats"
	"mosquitonet/internal/trace"
	"mosquitonet/internal/transport"
)

// --- A1: routing optimizations (Section 3.2) ------------------------------

// A1Result quantifies the triangle-route optimization: round-trip latency
// to a correspondent under the basic (tunnel-everything) protocol versus
// the triangle route, the 20-byte encapsulation overhead, and the
// transit-filter failure mode with its probe-and-fall-back recovery.
type A1Result struct {
	TunnelRTTLocal    *stats.Series // CH on the visited subnet, reverse-tunneled
	TriangleRTTLocal  *stats.Series // CH on the visited subnet, triangle
	TunnelRTTCampus   *stats.Series
	TriangleRTTCampus *stats.Series
	EncapOverhead     int // bytes added per tunneled packet

	// Transit-filter scenario: sent/delivered before and after the probe
	// caches the fallback policy.
	FilteredTriangleDelivered int
	FilteredTriangleSent      int
	FallbackDelivered         int
	FallbackSent              int

	// Export holds snapshots for the main and transit-filter testbeds.
	*Export
}

func (r *A1Result) String() string {
	var b strings.Builder
	b.WriteString("A1: triangle route vs tunnel (Section 3.2)\n")
	b.WriteString("paper: triangle improves the route and removes 20B+ encapsulation, but transit filters break it\n")
	for _, s := range []*stats.Series{r.TunnelRTTLocal, r.TriangleRTTLocal, r.TunnelRTTCampus, r.TriangleRTTCampus} {
		fmt.Fprintf(&b, "  %s\n", s)
	}
	fmt.Fprintf(&b, "  encapsulation overhead: %d bytes per packet\n", r.EncapOverhead)
	fmt.Fprintf(&b, "  with transit filter: triangle delivered %d/%d; after probe fallback: %d/%d\n",
		r.FilteredTriangleDelivered, r.FilteredTriangleSent, r.FallbackDelivered, r.FallbackSent)
	return b.String()
}

// RunA1 measures the routing optimizations.
func RunA1(seed int64, samples int) (*A1Result, error) {
	res := &A1Result{
		TunnelRTTLocal:    stats.NewSeries("tunnel RTT, CH on visited net"),
		TriangleRTTLocal:  stats.NewSeries("triangle RTT, CH on visited net"),
		TunnelRTTCampus:   stats.NewSeries("tunnel RTT, CH on campus"),
		TriangleRTTCampus: stats.NewSeries("triangle RTT, CH on campus"),
		EncapOverhead:     ip.HeaderLen,
	}
	tb := New(seed)
	tb.MoveEthTo(tb.DeptNet)
	tb.MustConnectForeign(tb.Eth)

	for _, ch := range []*transport.Stack{tb.CH, tb.CampusCH} {
		if _, err := ch.Echo(ip.Unspecified, 7); err != nil {
			return nil, err
		}
	}

	measure := func(dst ip.Addr, policy mip.Policy, series *stats.Series) error {
		tb.MH.Policy().SetHost(dst, policy)
		for i := 0; i < samples; i++ {
			if err := udpRTT(tb, dst, series); err != nil {
				return err
			}
		}
		return nil
	}
	if err := measure(CHAddr, mip.PolicyTunnel, res.TunnelRTTLocal); err != nil {
		return nil, err
	}
	if err := measure(CHAddr, mip.PolicyTriangle, res.TriangleRTTLocal); err != nil {
		return nil, err
	}
	if err := measure(CampusCHAddr, mip.PolicyTunnel, res.TunnelRTTCampus); err != nil {
		return nil, err
	}
	if err := measure(CampusCHAddr, mip.PolicyTriangle, res.TriangleRTTCampus); err != nil {
		return nil, err
	}

	// Transit-filter scenario, on a fresh testbed.
	tb2 := New(seed + 1)
	tb2.Router.IfaceByName("r-" + tb2.DeptNet.Name()).SetTransitFilter(true) // forbid transit traffic from the visited net
	tb2.MoveEthTo(tb2.DeptNet)
	tb2.MustConnectForeign(tb2.Eth)
	echo, err := tb2.CampusCH.Echo(ip.Unspecified, 7)
	if err != nil {
		return nil, err
	}

	tb2.MH.Policy().SetHost(CampusCHAddr, mip.PolicyTriangle)
	cli, err := tb2.MHTS.UDP(ip.Unspecified, 0, nil)
	if err != nil {
		return nil, err
	}
	res.FilteredTriangleSent = samples
	for i := 0; i < samples; i++ {
		cli.SendTo(CampusCHAddr, 7, []byte("blocked?"))
		tb2.Run(500 * time.Millisecond)
	}
	res.FilteredTriangleDelivered = int(echo.Received)

	// The probe detects the filter and reverts the policy.
	tb2.MH.ProbeTriangle(CampusCHAddr, 2*time.Second, nil)
	tb2.Run(10 * time.Second)
	before := echo.Received
	res.FallbackSent = samples
	for i := 0; i < samples; i++ {
		cli.SendTo(CampusCHAddr, 7, []byte("tunneled"))
		tb2.Run(500 * time.Millisecond)
	}
	res.FallbackDelivered = int(echo.Received - before)
	res.Export = &Export{Experiment: "a1", Seed: seed, Snapshots: []*metrics.Snapshot{
		tb.SnapshotMetrics("routing"), tb2.SnapshotMetrics("transit-filter"),
	}}
	return res, nil
}

// udpRTT sends one datagram from the mobile host (unbound, so subject to
// mobile IP) and records the echo round-trip time.
func udpRTT(tb *Testbed, dst ip.Addr, series *stats.Series) error {
	var rtt time.Duration
	got := false
	var start sim.Time
	sock, err := tb.MHTS.UDP(ip.Unspecified, 0, func(transport.Datagram) {
		rtt = tb.Loop.Now().Sub(start)
		got = true
	})
	if err != nil {
		return err
	}
	defer sock.Close()
	start = tb.Loop.Now()
	sock.SendTo(dst, 7, []byte("rtt"))
	tb.Run(3 * time.Second)
	if got {
		series.Add(rtt)
	}
	return nil
}

// --- A2: foreign-agent forwarding vs collocated care-of (Section 5.1) -----

// A2Result measures the packet-loss trade-off the paper discusses: during
// a move off a high-latency (radio) network, a foreign agent that receives
// the mobile host's new location can forward straggler packets that a
// collocated care-of address would simply lose.
type A2Result struct {
	WithoutFA *stats.LossHistogram
	WithFA    *stats.LossHistogram
	Forwarded uint64 // stragglers the FA re-tunneled across all iterations
	// Export holds one snapshot per variant.
	*Export
}

func (r *A2Result) String() string {
	var b strings.Builder
	b.WriteString("A2: handoff loss, collocated care-of vs foreign agent (Section 5.1)\n")
	b.WriteString("paper: 'foreign agents may somewhat reduce packet loss' by forwarding stragglers\n")
	b.WriteString(r.WithoutFA.String())
	b.WriteString(r.WithFA.String())
	fmt.Fprintf(&b, "stragglers forwarded by the FA: %d\n", r.Forwarded)
	fmt.Fprintf(&b, "mean loss: without FA %.1f, with FA %.1f\n",
		float64(r.WithoutFA.TotalLost())/float64(r.WithoutFA.Iterations()),
		float64(r.WithFA.TotalLost())/float64(r.WithFA.Iterations()))
	return b.String()
}

// RunA2 measures handoffs off the slow remote net onto the department
// Ethernet, with and without a foreign agent on the old network. With a
// foreign agent the mobile host announces its departure (the agent
// buffers) and then supplies its new care-of address (the agent forwards
// the buffered packets and any further stragglers).
func RunA2(seed int64, iterations int) (*A2Result, error) { return runA2(seed, iterations, nil) }

// runA2 is RunA2; watch, if set, sees the foreign-agent world and the
// agent's host before the first handoff.
func runA2(seed int64, iterations int, watch func(*Testbed, *mip.ForeignAgent, *stack.Host)) (*A2Result, error) {
	res := &A2Result{
		WithoutFA: stats.NewLossHistogram("cold slow-net->wired, collocated care-of"),
		WithFA:    stats.NewLossHistogram("cold slow-net->wired, foreign agent on old net"),
		Export:    &Export{Experiment: "a2", Seed: seed},
	}
	const probeInterval = 50 * time.Millisecond

	// wan0 is the interface the mobile host uses on the slow net.
	addWAN := func(tb *Testbed) *mip.ManagedIface {
		eth := tb.World.Spec.Topology.Mobiles[0].Ifaces[0] // the same PCMCIA card, in another wall jack
		d := link.NewDevice(tb.Loop, "mh-wan", eth.BringUp.D(), eth.BringUpJitter.D())
		d.Attach(tb.SlowNet)
		mi, err := tb.MH.AddInterface("wan0", d, false, &mip.StaticConfig{
			Addr:    MHSlowAddr,
			Prefix:  SlowPrefix,
			Gateway: RouterSlowAddr,
		})
		if err != nil {
			panic(err)
		}
		return mi
	}

	// Without FA: collocated care-of on the slow net.
	{
		tb := New(seed)
		tb.MoveEthTo(tb.DeptNet)
		wan := addWAN(tb)
		tb.MustConnectForeign(wan)
		probe, err := scenario.NewEchoProbe(tb.Loop, tb.CH, tb.MHTS, MHHomeAddr, 7, probeInterval)
		if err != nil {
			return nil, err
		}
		for i := 0; i < iterations; i++ {
			lost, err := lossAcross(tb, probe, 2*time.Second, 30*time.Second, func(done func(error)) {
				tb.MH.ColdSwitch(tb.Eth, done)
			})
			if err != nil {
				return nil, fmt.Errorf("A2 no-FA iteration %d: %w", i, err)
			}
			res.WithoutFA.Record(lost)
			probe.Start()
			if err := tb.World.Await(30*time.Second, func(done func(error)) { tb.MH.ColdSwitch(wan, done) }); err != nil {
				return nil, fmt.Errorf("A2 no-FA restore %d: %w", i, err)
			}
		}
		probe.Stop()
		res.Export.Snapshots = append(res.Export.Snapshots, tb.SnapshotMetrics("collocated"))
	}

	// With FA on the slow net.
	{
		tb := New(seed + 1)
		tb.MoveEthTo(tb.DeptNet)
		wan := addWAN(tb)
		fa, faHost, err := newSlowNetFA(tb)
		if err != nil {
			return nil, err
		}
		attachViaFA := func() error {
			return tb.World.Await(30*time.Second, func(done func(error)) {
				tb.MH.ConnectViaForeignAgent(wan, fa.Addr(), done)
			})
		}
		if err := attachViaFA(); err != nil {
			return nil, fmt.Errorf("A2: FA attach: %w", err)
		}
		probe, err := scenario.NewEchoProbe(tb.Loop, tb.CH, tb.MHTS, MHHomeAddr, 7, probeInterval)
		if err != nil {
			return nil, err
		}
		if watch != nil {
			watch(tb, fa, faHost)
		}
		for i := 0; i < iterations; i++ {
			lost, err := lossAcross(tb, probe, 2*time.Second, 30*time.Second, func(done func(error)) {
				// Departure warning: the agent buffers once the notice
				// arrives. The lead time models the "sufficient warning" the
				// paper says makes smooth switches possible — and the notice
				// must clear the mobile host's own output path before the
				// interface is torn down.
				tb.MH.AnnounceDeparture(fa.Addr(), 30*time.Second)
				tb.Run(200 * time.Millisecond)
				tb.MH.ColdSwitch(tb.Eth, func(err error) {
					if err == nil {
						// Hand the agent the new care-of address; it flushes
						// its buffer and keeps forwarding stragglers.
						tb.MH.NotifyPreviousFA(fa.Addr(), tb.MH.CareOf(), 30*time.Second)
					}
					done(err)
				})
			})
			if err != nil {
				return nil, fmt.Errorf("A2 FA iteration %d: %w", i, err)
			}
			res.WithFA.Record(lost)
			probe.Start()
			tb.MH.Disconnect(tb.Eth)
			if err := attachViaFA(); err != nil {
				return nil, fmt.Errorf("A2 FA re-attach %d: %w", i, err)
			}
		}
		probe.Stop()
		res.Forwarded = fa.Stats().Forwarded
		res.Export.Snapshots = append(res.Export.Snapshots, tb.SnapshotMetrics("foreign-agent"))
	}
	return res, nil
}

// hostDelay is the per-packet cost the compiled spec gives the named end
// host. Hosts an ablation builds beside the compiled ones take their
// calibration from the spec, the only place a cost is written.
func (tb *Testbed) hostDelay(name string) time.Duration {
	for _, h := range tb.World.Spec.Topology.Hosts {
		if h.Name == name {
			return h.Delay.D()
		}
	}
	panic("testbed: spec has no host " + name)
}

// newSlowNetFA places a foreign agent host — a machine of the
// correspondent's class — on the slow remote subnet.
func newSlowNetFA(tb *Testbed) (*mip.ForeignAgent, *stack.Host, error) {
	cost := tb.hostDelay("ch")
	h := stack.NewHost(tb.Loop, "fa-slow", stack.Config{InputDelay: cost, OutputDelay: cost})
	ts, ifc := scenario.AttachEndHost(h, tb.SlowNet, "fa-eth", FASlowAddr, SlowPrefix, RouterSlowAddr, stack.IfaceOpts{})
	fa, err := mip.NewForeignAgent(ts, mip.ForeignAgentConfig{
		Iface:           ifc,
		ProcessingDelay: cost,
		Tracer:          tb.Tracer,
	})
	return fa, h, err
}

// --- A3: home-agent scalability ------------------------------------------

// A3Row is one fleet size's registration-latency measurement.
type A3Row struct {
	MobileHosts  int
	Registered   int
	Latency      *stats.Series // per-host request->reply
	TotalElapsed time.Duration // first request sent -> last reply received
}

// A3Result supports the paper's claim that "the home agent should be able
// to deal with a large number of mobile hosts simultaneously".
type A3Result struct {
	Rows []A3Row
	// Export holds one snapshot per fleet size.
	*Export
}

func (r *A3Result) String() string {
	var b strings.Builder
	b.WriteString("A3: home-agent scalability (Section 4's closing claim)\n")
	b.WriteString("  hosts | registered | req->reply mean | p95 | all done in\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %5d | %10d | %14v | %v | %v\n",
			row.MobileHosts, row.Registered,
			row.Latency.Mean().Round(10*time.Microsecond),
			row.Latency.Percentile(95).Round(10*time.Microsecond),
			row.TotalElapsed.Round(time.Millisecond))
	}
	return b.String()
}

// RunA3 registers fleets of visiting mobile hosts against one home agent.
func RunA3(seed int64, fleets []int) (*A3Result, error) {
	res := &A3Result{Export: &Export{Experiment: "a3", Seed: seed}}
	for _, n := range fleets {
		if n > scaleAddrHosts {
			return nil, fmt.Errorf("A3: fleet of %d exceeds the %d hosts a /16 addresses", n, scaleAddrHosts)
		}
		row, snap, err := runA3Fleet(seed, n)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
		res.Export.Snapshots = append(res.Export.Snapshots, snap)
	}
	return res, nil
}

func runA3Fleet(seed int64, n int) (A3Row, *metrics.Snapshot, error) {
	tb := New(seed + int64(n))
	row := A3Row{MobileHosts: n, Latency: stats.NewSeries(fmt.Sprintf("reg latency n=%d", n))}

	tracer := trace.New(tb.Loop)
	mh := &tb.World.Spec.Topology.Mobiles[0] // every fleet host is the paper's Handbook 486
	type fleetMH struct {
		m  *mip.MobileHost
		mi *mip.ManagedIface
	}
	var fleet []fleetMH
	for i := 0; i < n; i++ {
		h := stack.NewHost(tb.Loop, fmt.Sprintf("mh%03d", i), stack.Config{
			InputDelay:  mh.Delay.D(),
			OutputDelay: mh.Delay.D(),
		})
		ts := transport.NewStack(h)
		m := mip.NewMobileHost(ts, mip.MobileHostConfig{
			HomeAddr:   scaleAddr(HomePrefix, i),
			HomePrefix: HomePrefix,
			HomeAgent:  RouterHomeAddr,
			Lifetime:   mh.Lifetime.D(),
			Tracer:     tracer,
		})
		d := link.NewDevice(tb.Loop, "eth", 0, 0)
		d.Attach(tb.DeptNet)
		mi, err := m.AddInterface("eth0", d, false, &mip.StaticConfig{
			Addr:    scaleAddr(DeptPrefix, i),
			Prefix:  DeptPrefix,
			Gateway: RouterDeptAddr,
		})
		if err != nil {
			return row, nil, err
		}
		fleet = append(fleet, fleetMH{m, mi})
	}
	start := tb.Loop.Now()
	registered := 0
	var allDoneAt sim.Time
	for i, f := range fleet {
		f := f
		// Stagger slightly so the burst is realistic, not lockstep.
		tb.Loop.Schedule(time.Duration(i)*100*time.Microsecond, func() {
			f.m.ConnectForeign(f.mi, func(err error) {
				if err == nil {
					registered++
					if registered == n {
						allDoneAt = tb.Loop.Now()
					}
				}
			})
		})
	}
	tb.Run(30 * time.Second) // short of the 60s lifetime: no renewals mixed in
	row.Registered = registered
	row.TotalElapsed = allDoneAt.Sub(start)

	// Correlate request->reply per registration ID from the shared trace.
	// Details look like "careof=36.8.2.1 id=123 try=1" (request) and
	// "accepted lifetime=60s id=123" (reply); join on the id token, indexed
	// once rather than re-split for every reply.
	sentAt := map[string]sim.Time{}
	for _, e := range tracer.Find("reg.request.sent") {
		sentAt[idToken(e.Detail)] = e.At
	}
	for _, e := range tracer.Find("reg.reply.received") {
		if at, ok := sentAt[idToken(e.Detail)]; ok {
			row.Latency.Add(e.At.Sub(at))
		}
	}
	return row, tb.SnapshotMetrics(fmt.Sprintf("fleet-%d", n)), nil
}

func idToken(detail string) string {
	for _, f := range strings.Fields(detail) {
		if strings.HasPrefix(f, "id=") {
			return f
		}
	}
	return ""
}

// --- A4: handoff strategies (cold / hot / simultaneous bindings) ----------

// A4Result compares the three handoff strategies the system supports when
// leaving the radio for the wire, with radio coverage lost the moment the
// switch completes (walking out of range). Cold switching pays the full
// bring-up blackout; hot switching saves that but still loses packets in
// flight toward the old care-of address on the high-latency radio; the
// simultaneous-bindings extension (S flag) duplicates packets to both
// addresses during the overlap and loses nothing.
type A4Result struct {
	Cold         *stats.LossHistogram
	Hot          *stats.LossHistogram
	Simultaneous *stats.LossHistogram
	Duplicated   uint64 // copies the HA emitted during overlaps
	// Export holds one snapshot per strategy.
	*Export
}

func (r *A4Result) String() string {
	var b strings.Builder
	b.WriteString("A4: handoff strategies, radio->wired with coverage loss at switch completion\n")
	b.WriteString("(cold = paper's basic switch; hot = paper's make-before-break; simultaneous = S-flag extension)\n")
	b.WriteString(r.Cold.String())
	b.WriteString(r.Hot.String())
	b.WriteString(r.Simultaneous.String())
	fmt.Fprintf(&b, "mean loss: cold %.1f, hot %.1f, simultaneous %.1f (HA duplicated %d copies)\n",
		float64(r.Cold.TotalLost())/float64(r.Cold.Iterations()),
		float64(r.Hot.TotalLost())/float64(r.Hot.Iterations()),
		float64(r.Simultaneous.TotalLost())/float64(r.Simultaneous.Iterations()),
		r.Duplicated)
	return b.String()
}

// RunA4 measures the three strategies over the given number of handoffs
// each.
func RunA4(seed int64, iterations int) (*A4Result, error) {
	res := &A4Result{
		Cold:         stats.NewLossHistogram("cold switch"),
		Hot:          stats.NewLossHistogram("hot switch"),
		Simultaneous: stats.NewLossHistogram("hot switch with simultaneous bindings"),
		Export:       &Export{Experiment: "a4", Seed: seed},
	}
	const probeInterval = 50 * time.Millisecond

	run := func(strategy string, hist *stats.LossHistogram) error {
		tb := New(seed + int64(len(strategy)))
		tb.MoveEthTo(tb.DeptNet)
		tb.MustConnectForeign(tb.Strip) // start on the radio
		probe, err := scenario.NewEchoProbe(tb.Loop, tb.CH, tb.MHTS, MHHomeAddr, 7, probeInterval)
		if err != nil {
			return err
		}
		for i := 0; i < iterations; i++ {
			lost, err := lossAcross(tb, probe, 2*time.Second, 60*time.Second, func(done func(error)) {
				leaveRadio := func(err error) {
					if err == nil {
						// Coverage is lost the moment we finish switching.
						tb.Strip.Iface().Device().BringDown()
					}
					done(err)
				}
				switch strategy {
				case "cold":
					tb.MH.ColdSwitch(tb.Eth, leaveRadio)
				case "hot":
					tb.MH.MakeBeforeBreak(tb.Eth, leaveRadio)
				case "simultaneous":
					tb.Eth.Iface().Device().BringUp(func() {
						tb.MH.Prepare(tb.Eth, func(err error) {
							if err != nil {
								done(err)
								return
							}
							tb.MH.AddSimultaneousBinding(tb.Eth.Addr(), func(err error) {
								if err != nil {
									done(err)
									return
								}
								// Let duplication cover the radio's in-flight
								// window before retiring the old binding.
								tb.Loop.Schedule(400*time.Millisecond, func() {
									tb.MH.HotSwitch(tb.Eth, leaveRadio)
								})
							})
						})
					})
				}
			})
			if err != nil {
				return fmt.Errorf("%s iteration %d: %w", strategy, i, err)
			}
			hist.Record(lost)
			if strategy == "simultaneous" {
				res.Duplicated = tb.HA.Stats().Duplicated
			}

			// Restore: back onto the radio (unmeasured).
			if err := tb.World.Await(60*time.Second, func(done func(error)) { tb.MH.ColdSwitch(tb.Strip, done) }); err != nil {
				return fmt.Errorf("%s restore %d: %w", strategy, i, err)
			}
			tb.MH.Disconnect(tb.Eth)
			tb.Run(time.Second)
		}
		probe.Stop()
		res.Export.Snapshots = append(res.Export.Snapshots, tb.SnapshotMetrics(strategy))
		return nil
	}
	if err := run("cold", res.Cold); err != nil {
		return nil, err
	}
	if err := run("hot", res.Hot); err != nil {
		return nil, err
	}
	if err := run("simultaneous", res.Simultaneous); err != nil {
		return nil, err
	}
	return res, nil
}
