package testbed

import (
	"fmt"
	"strings"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/metrics"
	"mosquitonet/internal/mip"
	"mosquitonet/internal/scenario"
	"mosquitonet/internal/stack"
	"mosquitonet/internal/stats"
	"mosquitonet/internal/trace"
	"mosquitonet/internal/transport"
)

// This file implements the paper's evaluation (Section 4) plus the
// ablations listed in DESIGN.md. Each Run* function builds a fresh
// testbed, runs the experiment to completion in virtual time, and returns
// a result whose String() prints the same rows/series the paper reports.

// --- E1: same-subnet care-of address switch ------------------------------

// E1Result is the first experiment: the minimal essential software
// overhead of a switch, measured as packets lost from a 10 ms UDP echo
// stream while the mobile host re-registers a new address on the same
// subnet. The paper saw 16/20 iterations lose nothing and 4/20 lose one
// packet, bounding the disruption under 10 ms.
type E1Result struct {
	Histogram *stats.LossHistogram
	// Window is the measured disruption interval per iteration: from the
	// moment the old address stops accepting packets to the home agent
	// installing the new binding.
	Window *stats.Series
	// Export is the machine-readable record of the run.
	*Export
}

func (r *E1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E1: same-subnet address switch (%d ms UDP stream, %d iterations)\n",
		E1SendInterval/time.Millisecond, r.Histogram.Iterations())
	fmt.Fprintf(&b, "paper: 16/20 iterations lost 0 packets, 4/20 lost 1; window < 10ms\n")
	b.WriteString(r.Histogram.String())
	fmt.Fprintf(&b, "disruption window: mean=%v max=%v\n", r.Window.Mean().Round(time.Microsecond), r.Window.Max().Round(time.Microsecond))
	return b.String()
}

// RunE1 performs the same-subnet switch experiment.
func RunE1(seed int64) (*E1Result, error) {
	tb := New(seed)
	tb.MoveEthTo(tb.DeptNet)
	tb.MustConnectForeign(tb.Eth)

	probe, err := scenario.NewEchoProbe(tb.Loop, tb.CH, tb.MHTS, MHHomeAddr, 7, E1SendInterval)
	if err != nil {
		return nil, err
	}
	res := &E1Result{
		Histogram: stats.NewLossHistogram("same-subnet address switch"),
		Window:    stats.NewSeries("disruption window"),
	}
	// Two static addresses outside the DHCP pool to flip between.
	addrs := [2]ip.Addr{ip.MustParseAddr("36.8.0.200"), ip.MustParseAddr("36.8.0.201")}

	for i := 0; i < E1Iterations; i++ {
		lost, err := lossAcross(tb, probe, 500*time.Millisecond, 5*time.Second, func(done func(error)) {
			// Vary the phase of the switch relative to the 10 ms send clock;
			// resuming the probe restarts its clock, so without this the
			// switch would always land at the same offset.
			tb.Run(3*E1SendInterval + time.Duration(tb.Loop.Rand().Int63n(int64(E1SendInterval))))
			tb.Tracer.Reset()
			tb.MH.SwitchAddress(addrs[i%2], done)
		})
		if err != nil {
			return nil, fmt.Errorf("E1 iteration %d: %w", i, err)
		}
		res.Window.Add(disruptionWindow(tb.Tracer))
		res.Histogram.Record(lost)
	}
	probe.Stop()
	res.Export = &Export{Experiment: "e1", Seed: seed, Snapshots: []*metrics.Snapshot{tb.SnapshotMetrics("e1")}}
	return res, nil
}

// lossAcross is the one measured window, and what every loss figure in the
// evaluation means: stream for warm, quiesce, resume the stream, run op to
// completion, quiesce again, and count the probes sent in between that
// were never echoed. What an experiment does around the switch itself — a
// phase offset, a timestamp, a departure notice — is part of op.
func lossAcross(tb *Testbed, probe *scenario.FlowProbe, warm, timeout time.Duration, op func(done func(error))) (lost int, err error) {
	probe.Start()
	tb.Run(warm)
	sentBefore, recvBefore := quiesce(tb, probe)
	probe.Start()
	if err = tb.World.Await(timeout, op); err != nil {
		return 0, err
	}
	sentAfter, recvAfter := quiesce(tb, probe)
	return (sentAfter - sentBefore) - (recvAfter - recvBefore), nil
}

// quiesce pauses the probe, drains in-flight packets, and reads the flow's
// totals so loss accounting has no boundary error. An echo duplicated by
// simultaneous bindings is the tracker's duplicate, not a second receipt.
func quiesce(tb *Testbed, probe *scenario.FlowProbe) (sent, recv int) {
	probe.Pause()
	tb.Run(2 * time.Second)
	sent, recv, _, _ = probe.Flow().Totals()
	return sent, recv
}

// disruptionWindow extracts, from the trace, the interval between the old
// address ceasing to accept packets and the home agent installing the new
// binding.
func disruptionWindow(tr *trace.Tracer) time.Duration {
	start, ok1 := tr.Last("addrswitch.configure.done")
	end, ok2 := tr.Last("binding.installed")
	if !ok1 || !ok2 || end.At < start.At {
		return 0
	}
	return end.At.Sub(start.At)
}

// --- F6: device switching overhead ---------------------------------------

// F6Scenario names one bar chart of Figure 6.
type F6Scenario int

// The four Figure 6 scenarios.
const (
	ColdWiredToWireless F6Scenario = iota
	ColdWirelessToWired
	HotWiredToWireless
	HotWirelessToWired
)

func (s F6Scenario) String() string {
	switch s {
	case ColdWiredToWireless:
		return "cold wired->wireless"
	case ColdWirelessToWired:
		return "cold wireless->wired"
	case HotWiredToWireless:
		return "hot wired->wireless"
	case HotWirelessToWired:
		return "hot wireless->wired"
	default:
		return fmt.Sprintf("scenario(%d)", int(s))
	}
}

// F6Result reproduces Figure 6: per-scenario histograms of packets lost
// from a 250 ms UDP echo stream across a device switch.
type F6Result struct {
	Histograms map[F6Scenario]*stats.LossHistogram
	// Blackout records the registration-complete-to-switch-start interval
	// per cold iteration, the analogue of the paper's <1.25 s bound.
	Blackout *stats.Series
	// Export holds one metrics snapshot per scenario.
	*Export
}

func (r *F6Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "F6: device switching overhead (%d ms UDP stream, %d iterations each)\n",
		F6SendInterval/time.Millisecond, F6Iterations)
	b.WriteString("paper: cold-switch loss window generally < 1.25 s (a few packets at 250 ms); hot switching usually no loss\n")
	for _, s := range []F6Scenario{ColdWiredToWireless, ColdWirelessToWired, HotWiredToWireless, HotWirelessToWired} {
		b.WriteString(r.Histograms[s].String())
	}
	fmt.Fprintf(&b, "cold-switch blackout: mean=%v max=%v (paper bound: %v)\n",
		r.Blackout.Mean().Round(time.Millisecond), r.Blackout.Max().Round(time.Millisecond), PaperColdSwitchWindow)
	return b.String()
}

// RunF6 performs all four device-switch scenarios.
func RunF6(seed int64) (*F6Result, error) {
	res := &F6Result{
		Histograms: make(map[F6Scenario]*stats.LossHistogram),
		Blackout:   stats.NewSeries("cold blackout"),
		Export:     &Export{Experiment: "f6", Seed: seed},
	}
	for _, sc := range []F6Scenario{ColdWiredToWireless, ColdWirelessToWired, HotWiredToWireless, HotWirelessToWired} {
		h, snap, err := runF6Scenario(seed, sc, res.Blackout)
		if err != nil {
			return nil, fmt.Errorf("F6 %v: %w", sc, err)
		}
		res.Histograms[sc] = h
		res.Export.Snapshots = append(res.Export.Snapshots, snap)
	}
	return res, nil
}

func runF6Scenario(seed int64, sc F6Scenario, blackout *stats.Series) (*stats.LossHistogram, *metrics.Snapshot, error) {
	tb := New(seed + int64(sc))
	hist := stats.NewLossHistogram(sc.String())

	// The mobile host visits net 36.8 on the wired card and net 36.134 on
	// the radio, as in Figure 5.
	tb.MoveEthTo(tb.DeptNet)

	wiredFirst := sc == ColdWiredToWireless || sc == HotWiredToWireless
	hot := sc == HotWiredToWireless || sc == HotWirelessToWired
	from, to := tb.Eth, tb.Strip
	if !wiredFirst {
		from, to = tb.Strip, tb.Eth
	}
	tb.MustConnectForeign(from)

	probe, err := scenario.NewEchoProbe(tb.Loop, tb.CH, tb.MHTS, MHHomeAddr, 7, F6SendInterval)
	if err != nil {
		return nil, nil, err
	}
	// A hot switch is the whole make-before-break from a down device.
	switchTo := func(mi *mip.ManagedIface, done func(error)) {
		if hot {
			tb.MH.MakeBeforeBreak(mi, done)
		} else {
			tb.MH.ColdSwitch(mi, done)
		}
	}
	for i := 0; i < F6Iterations; i++ {
		warm := 2*time.Second + time.Duration(tb.Loop.Rand().Int63n(int64(F6SendInterval)))
		lost, err := lossAcross(tb, probe, warm, 30*time.Second, func(done func(error)) {
			tb.Tracer.Reset()
			switchStart := tb.Loop.Now()
			switchTo(to, func(err error) {
				if err == nil && !hot {
					blackout.Add(tb.Loop.Now().Sub(switchStart))
				}
				done(err)
			})
		})
		if err != nil {
			return nil, nil, fmt.Errorf("iteration %d: %w", i, err)
		}
		hist.Record(lost)

		// Restore the starting configuration (unmeasured).
		if err := tb.World.Await(30*time.Second, func(done func(error)) { switchTo(from, done) }); err != nil {
			return nil, nil, fmt.Errorf("iteration %d: restore: %w", i, err)
		}
		if hot {
			tb.MH.Disconnect(to)
			tb.Run(time.Second)
		}
	}
	probe.Stop()
	return hist, tb.SnapshotMetrics(sc.String()), nil
}

// --- F7: registration time-line ------------------------------------------

// F7Result reproduces Figure 7: the per-step breakdown of a same-subnet
// address switch and registration, averaged over 10 runs. The paper
// reports 7.39 ms total, 4.79 ms request->reply, and 1.48 ms of home-agent
// processing.
type F7Result struct {
	Configure    *stats.Series // interface configuration
	RouteChange  *stats.Series // route table update
	RequestReply *stats.Series // registration request -> reply at the MH
	HATurnaround *stats.Series // request received -> reply sent at the HA
	Total        *stats.Series // start of switch -> reply received
	// Timeline is the last iteration's registration timeline (the
	// addrswitch/reg/binding events), detached from the live trace so it
	// can be exported as JSONL after the run.
	Timeline *trace.Tracer
	// Export is the machine-readable record of the run; its Timeline field
	// carries the same events as Timeline above.
	*Export
}

func (r *F7Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "F7: registration time-line (%d iterations; mean with std dev, as in the paper)\n", r.Total.N())
	fmt.Fprintf(&b, "paper: total 7.39ms, request->reply 4.79ms, HA processing 1.48ms\n")
	for _, s := range []*stats.Series{r.Configure, r.RouteChange, r.RequestReply, r.HATurnaround, r.Total} {
		fmt.Fprintf(&b, "  %s\n", s)
	}
	return b.String()
}

// Artifacts adds the registration timeline, one JSON event per line.
func (r *F7Result) Artifacts() []Artifact {
	return append(r.Export.Artifacts(), Artifact{Name: "BENCH_f7_timeline.jsonl", Write: r.Timeline.WriteJSONL})
}

// RunF7 performs the registration time-line experiment.
func RunF7(seed int64) (*F7Result, error) {
	tb := New(seed)
	tb.MoveEthTo(tb.DeptNet)
	tb.MustConnectForeign(tb.Eth)

	res := &F7Result{
		Configure:    stats.NewSeries("configure interface"),
		RouteChange:  stats.NewSeries("change route table"),
		RequestReply: stats.NewSeries("request->reply"),
		HATurnaround: stats.NewSeries("HA turnaround"),
		Total:        stats.NewSeries("total"),
	}
	addrs := [2]ip.Addr{ip.MustParseAddr("36.8.0.200"), ip.MustParseAddr("36.8.0.201")}
	for i := 0; i < F7Iterations; i++ {
		tb.Tracer.Reset()
		done := false
		var swErr error
		tb.MH.SwitchAddress(addrs[i%2], func(err error) { swErr, done = err, true })
		tb.Run(5 * time.Second)
		if !done || swErr != nil {
			return nil, fmt.Errorf("F7 iteration %d: done=%v err=%v", i, done, swErr)
		}
		tr := tb.Tracer
		tStart, _ := tr.Last("addrswitch.start")
		tConf, _ := tr.Last("addrswitch.configure.done")
		tRoute, _ := tr.Last("addrswitch.route.done")
		tReq, _ := tr.Last("reg.request.sent")
		tReqRx, _ := tr.Last("reg.request.received")
		tRepTx, _ := tr.Last("reg.reply.sent")
		tRepRx, _ := tr.Last("reg.reply.received")
		res.Configure.Add(tConf.At.Sub(tStart.At))
		res.RouteChange.Add(tRoute.At.Sub(tConf.At))
		res.RequestReply.Add(tRepRx.At.Sub(tReq.At))
		res.HATurnaround.Add(tRepTx.At.Sub(tReqRx.At))
		res.Total.Add(tRepRx.At.Sub(tStart.At))
		if i == F7Iterations-1 {
			res.Timeline = tr.Filter("addrswitch.", "reg.", "binding.")
		}
		tb.Run(time.Second)
	}
	res.Export = &Export{
		Experiment: "f7",
		Seed:       seed,
		Snapshots:  []*metrics.Snapshot{tb.SnapshotMetrics("f7")},
		Timeline:   res.Timeline.Events(),
	}
	return res, nil
}

// --- T-RTT: path round-trip times ----------------------------------------

// RTTResult characterizes the testbed's paths, anchoring the 250 ms probe
// interval of Figure 6 ("the round-trip time between the home agent and
// the mobile host through the radio interface is 200~250ms").
type RTTResult struct {
	RadioRTT *stats.Series // MH <-> router over the radio
	WiredRTT *stats.Series // MH <-> router over visited Ethernet
	// Export holds one metrics snapshot per medium.
	*Export
}

func (r *RTTResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "T-RTT: path round-trip times\n")
	fmt.Fprintf(&b, "paper: radio RTT 200~250ms\n")
	fmt.Fprintf(&b, "  %s (min=%v max=%v)\n", r.RadioRTT, r.RadioRTT.Min().Round(time.Millisecond), r.RadioRTT.Max().Round(time.Millisecond))
	fmt.Fprintf(&b, "  %s (min=%v max=%v)\n", r.WiredRTT, r.WiredRTT.Min().Round(time.Microsecond), r.WiredRTT.Max().Round(time.Microsecond))
	return b.String()
}

// RunRTT measures both media with local-role pings from the mobile host to
// the router.
func RunRTT(seed int64, samples int) (*RTTResult, error) {
	res := &RTTResult{
		RadioRTT: stats.NewSeries("radio MH<->router"),
		WiredRTT: stats.NewSeries("wired MH<->router"),
	}

	// Radio: MH on 36.134 pinging its router.
	tb := New(seed)
	tb.MustConnectForeign(tb.Strip)
	collectPings(tb, RouterRadioAddr, MHRadioAddr, samples, res.RadioRTT)

	// Wired: MH visiting 36.8 pinging its router.
	tb2 := New(seed + 1)
	tb2.MoveEthTo(tb2.DeptNet)
	tb2.MustConnectForeign(tb2.Eth)
	collectPings(tb2, RouterDeptAddr, tb2.MH.CareOf(), samples, res.WiredRTT)
	res.Export = &Export{Experiment: "rtt", Seed: seed, Snapshots: []*metrics.Snapshot{
		tb.SnapshotMetrics("radio"), tb2.SnapshotMetrics("wired"),
	}}
	return res, nil
}

func collectPings(tb *Testbed, dst, bound ip.Addr, samples int, series *stats.Series) {
	for i := 0; i < samples; i++ {
		tb.MH.Host().ICMP().Ping(dst, bound, 40, 3*time.Second, func(r stack.PingResult) {
			if !r.TimedOut && !r.Unreachable {
				series.Add(r.RTT)
			}
		})
		tb.Run(3 * time.Second)
	}
}

// --- T-TPUT: radio throughput ----------------------------------------------

// ThroughputResult validates the radio model against the paper's own
// characterization: nominal 100 Kbit/s, "in practice 30-40 Kbits/second is
// the best we achieve".
type ThroughputResult struct {
	Kbits         float64
	BytesReceived int
	Span          time.Duration
	// Export is the machine-readable record of the run.
	*Export
}

func (r *ThroughputResult) String() string {
	return fmt.Sprintf("T-TPUT: radio saturating throughput\npaper: 30-40 Kbit/s effective (100 nominal)\n  measured: %.1f Kbit/s (%d bytes over %v, reverse-tunneled UDP)\n",
		r.Kbits, r.BytesReceived, r.Span.Round(time.Millisecond))
}

// RunThroughput measures saturating UDP goodput from the mobile host on
// the radio subnet to the correspondent, through the reverse tunnel.
func RunThroughput(seed int64, datagrams, size int) (*ThroughputResult, error) {
	tb := New(seed)
	tb.MustConnectForeign(tb.Strip)

	res := &ThroughputResult{}
	var firstAt, lastAt time.Duration
	if _, err := tb.CH.UDP(ip.Unspecified, 9000, func(d transport.Datagram) {
		if res.BytesReceived == 0 {
			firstAt = tb.Loop.Now().Duration()
		}
		res.BytesReceived += len(d.Payload)
		lastAt = tb.Loop.Now().Duration()
	}); err != nil {
		return nil, err
	}
	cli, err := tb.MHTS.UDP(ip.Unspecified, 0, nil)
	if err != nil {
		return nil, err
	}
	for i := 0; i < datagrams; i++ {
		cli.SendTo(CHAddr, 9000, make([]byte, size))
	}
	tb.Run(5 * time.Minute)
	res.Span = lastAt - firstAt
	if res.Span > 0 {
		res.Kbits = float64(res.BytesReceived*8) / res.Span.Seconds() / 1000
	}
	res.Export = &Export{Experiment: "tput", Seed: seed, Snapshots: []*metrics.Snapshot{tb.SnapshotMetrics("tput")}}
	return res, nil
}
