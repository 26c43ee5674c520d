package testbed

import (
	"strings"
	"testing"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/metrics"
	"mosquitonet/internal/mip"
	"mosquitonet/internal/scenario"
	"mosquitonet/internal/stack"
	"mosquitonet/internal/transport"
)

// mustEcho opens the UDP echo service on port 7 of ts.
func mustEcho(t *testing.T, ts *transport.Stack) *transport.UDPSocket {
	t.Helper()
	echo, err := ts.Echo(ip.Unspecified, 7)
	if err != nil {
		t.Fatal(err)
	}
	return echo
}

func TestTopologyConnectivityAtHome(t *testing.T) {
	tb := New(1)
	tb.MustConnectHome()
	echo := mustEcho(t, tb.CH)
	echoed := 0
	cli, err := tb.MHTS.UDP(ip.Unspecified, 0, func(transport.Datagram) { echoed++ })
	if err != nil {
		t.Fatal(err)
	}
	cli.SendTo(CHAddr, 7, []byte("home"))
	tb.Run(5 * time.Second)
	if echo.Received != 1 || echoed != 1 {
		t.Fatalf("served=%d echoed=%d", echo.Received, echoed)
	}
}

func TestTopologyVisitDeptNet(t *testing.T) {
	tb := New(1)
	tb.MoveEthTo(tb.DeptNet)
	tb.MustConnectForeign(tb.Eth)
	if !DeptPrefix.Contains(tb.MH.CareOf()) {
		t.Fatalf("care-of %v not on 36.8", tb.MH.CareOf())
	}
	if _, ok := tb.HA.Binding(MHHomeAddr); !ok {
		t.Fatal("no binding at the home agent")
	}
	echo := mustEcho(t, tb.CampusCH)
	cli, _ := tb.MHTS.UDP(ip.Unspecified, 0, nil)
	cli.SendTo(CampusCHAddr, 7, []byte("visiting"))
	tb.Run(5 * time.Second)
	if echo.Received != 1 {
		t.Fatal("tunneled traffic failed from 36.8")
	}
}

func TestTopologyVisitRadioNet(t *testing.T) {
	tb := New(1)
	tb.MustConnectForeign(tb.Strip)
	if tb.MH.CareOf() != MHRadioAddr {
		t.Fatalf("care-of %v, want the static radio address", tb.MH.CareOf())
	}
	echo := mustEcho(t, tb.CH)
	cli, _ := tb.MHTS.UDP(ip.Unspecified, 0, nil)
	cli.SendTo(CHAddr, 7, []byte("over the air"))
	tb.Run(10 * time.Second)
	if echo.Received != 1 {
		t.Fatal("tunneled traffic failed from the radio net")
	}
}

// TestE1Shape checks the first experiment against the paper: iterations
// lose at most one packet, the large majority lose none, and the
// disruption window stays under the 10 ms send interval.
func TestE1Shape(t *testing.T) {
	res, err := RunE1(42)
	if err != nil {
		t.Fatal(err)
	}
	h := res.Histogram
	if h.Iterations() != E1Iterations {
		t.Fatalf("iterations = %d", h.Iterations())
	}
	if h.MaxLoss() > 1 {
		t.Fatalf("an iteration lost %d packets; paper bound is 1\n%s", h.MaxLoss(), h)
	}
	if h.Count(0) < E1Iterations/2 {
		t.Fatalf("only %d/%d iterations lost nothing\n%s", h.Count(0), E1Iterations, h)
	}
	if res.Window.Max() >= E1SendInterval {
		t.Fatalf("disruption window %v exceeds the 10ms bound", res.Window.Max())
	}
	if res.Window.N() != E1Iterations {
		t.Fatalf("window samples = %d", res.Window.N())
	}
	if !strings.Contains(res.String(), "E1") {
		t.Fatal("String() broken")
	}
}

// TestF7Shape checks the registration time-line against Figure 7's
// measured values: total ≈7.39ms, request->reply ≈4.79ms, home-agent
// turnaround ≈1.48ms.
func TestF7Shape(t *testing.T) {
	res, err := RunF7(42)
	if err != nil {
		t.Fatal(err)
	}
	within := func(name string, got, want, tol time.Duration) {
		t.Helper()
		if got < want-tol || got > want+tol {
			t.Errorf("%s = %v, want %v ± %v", name, got, want, tol)
		}
	}
	within("total", res.Total.Mean(), PaperRegTotal, 900*time.Microsecond)
	within("request->reply", res.RequestReply.Mean(), PaperRegRequestReply, 600*time.Microsecond)
	within("HA turnaround", res.HATurnaround.Mean(), PaperHATurnaround, 300*time.Microsecond)
	if res.Total.N() != F7Iterations {
		t.Fatalf("samples = %d", res.Total.N())
	}
	if res.Total.StdDev() == 0 {
		t.Error("degenerate deviation; jitter model inactive")
	}
	if res.Configure.Mean() <= 0 || res.RouteChange.Mean() <= 0 {
		t.Error("pre-registration phases not measured")
	}
	t.Logf("\n%s", res)
}

// TestF6Shape checks the device-switch histograms: cold switches lose a
// small number of packets bounded by the 1.25 s window at 250 ms spacing;
// hot switches usually lose none.
func TestF6Shape(t *testing.T) {
	res, err := RunF6(42)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []F6Scenario{ColdWiredToWireless, ColdWirelessToWired} {
		h := res.Histograms[sc]
		if h.Iterations() != F6Iterations {
			t.Fatalf("%v iterations = %d", sc, h.Iterations())
		}
		// 1.25s at 250ms spacing = at most 5 in-window losses; allow one
		// more for a radio drop.
		if h.MaxLoss() > 6 {
			t.Errorf("%v lost up to %d packets\n%s", sc, h.MaxLoss(), h)
		}
		if h.TotalLost() == 0 {
			t.Errorf("%v lost nothing; cold switches must lose packets", sc)
		}
	}
	for _, sc := range []F6Scenario{HotWiredToWireless, HotWirelessToWired} {
		h := res.Histograms[sc]
		if h.Count(0)+h.Count(1) < F6Iterations-1 {
			t.Errorf("%v: hot switching should usually lose nothing\n%s", sc, h)
		}
	}
	if res.Blackout.Max() > PaperColdSwitchWindow {
		t.Errorf("cold blackout %v exceeds the paper's %v bound", res.Blackout.Max(), PaperColdSwitchWindow)
	}
	// Wired->wireless must be the costlier direction (radio bring-up).
	if res.Histograms[ColdWiredToWireless].TotalLost() < res.Histograms[ColdWirelessToWired].TotalLost() {
		t.Log("note: wired->wireless lost fewer packets than wireless->wired this seed")
	}
	t.Logf("\n%s", res)
}

// TestRTTShape anchors the radio path at the paper's 200-250 ms RTT.
func TestRTTShape(t *testing.T) {
	res, err := RunRTT(42, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.RadioRTT.N() < 15 {
		t.Fatalf("only %d radio samples (loss too high?)", res.RadioRTT.N())
	}
	mean := res.RadioRTT.Mean()
	if mean < PaperRadioRTTLow || mean > PaperRadioRTTHigh {
		t.Errorf("radio RTT mean %v outside the paper's 200-250ms", mean)
	}
	if res.WiredRTT.Mean() > 15*time.Millisecond {
		t.Errorf("wired RTT %v implausibly high", res.WiredRTT.Mean())
	}
	t.Logf("\n%s", res)
}

// TestA1Shape: the triangle route must beat the tunnel to a local
// correspondent, transit filters must break it, and the probe must recover
// delivery via the tunnel.
func TestA1Shape(t *testing.T) {
	res, err := RunA1(42, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.TriangleRTTLocal.Mean() >= res.TunnelRTTLocal.Mean() {
		t.Errorf("triangle (%v) not faster than tunnel (%v) to a local CH",
			res.TriangleRTTLocal.Mean(), res.TunnelRTTLocal.Mean())
	}
	if res.TriangleRTTCampus.Mean() >= res.TunnelRTTCampus.Mean() {
		t.Errorf("triangle (%v) not faster than tunnel (%v) to a campus CH",
			res.TriangleRTTCampus.Mean(), res.TunnelRTTCampus.Mean())
	}
	if res.EncapOverhead != 20 {
		t.Errorf("encap overhead %d, want the paper's 20 bytes", res.EncapOverhead)
	}
	if res.FilteredTriangleDelivered != 0 {
		t.Errorf("transit filter let %d triangle packets through", res.FilteredTriangleDelivered)
	}
	if res.FallbackDelivered != res.FallbackSent {
		t.Errorf("fallback delivered %d/%d", res.FallbackDelivered, res.FallbackSent)
	}
	t.Logf("\n%s", res)
}

// TestA2Shape: the foreign agent must strictly reduce handoff loss by
// forwarding stragglers.
func TestA2Shape(t *testing.T) {
	res, err := RunA2(42, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Forwarded == 0 {
		t.Error("the FA never forwarded a straggler")
	}
	if res.WithFA.TotalLost() >= res.WithoutFA.TotalLost() {
		t.Errorf("FA did not reduce loss: with=%d without=%d",
			res.WithFA.TotalLost(), res.WithoutFA.TotalLost())
	}
	t.Logf("\n%s", res)
}

// TestA2BufferedPacketsDeliveredOrDroppedOnce: in A2's foreign-agent
// variant, each packet the agent buffers for the departing mobile host is
// either delivered once the buffer is flushed or counted as the agent's
// drop, exactly once: the tunnel counts none of them as its own drop. The
// packet log tells the two apart: a buffered packet is forwarded into the
// agent's hold interface, and a flushed one is forwarded again, into its
// tunnel toward the new care-of address.
func TestA2BufferedPacketsDeliveredOrDroppedOnce(t *testing.T) {
	var fa *mip.ForeignAgent
	var log *metrics.PacketLog
	var faName, mhName string
	_, err := runA2(42, 5, func(tb *Testbed, agent *mip.ForeignAgent, faHost *stack.Host) {
		fa, log = agent, metrics.PacketsFor(tb.Loop)
		faName, mhName = faHost.Name(), tb.MHTS.Host().Name()
	})
	if err != nil {
		t.Fatal(err)
	}
	if log == nil || log.Evicted() != 0 {
		t.Fatalf("the packet log is missing or evicted %d hops: the census needs them all", log.Evicted())
	}
	held, tunneled, delivered := map[uint64]int{}, map[uint64]int{}, map[uint64]int{}
	for _, e := range log.Events() {
		switch {
		case e.Node == faName && e.Point == "ip.forward" && strings.HasSuffix(e.Detail, " via hold0"):
			held[e.Pkt]++
		case e.Node == faName && e.Point == "ip.forward" && strings.HasSuffix(e.Detail, " via vif0"):
			tunneled[e.Pkt]++
		case e.Node == mhName && e.Point == "ip.deliver" && e.Detail == "udp":
			delivered[e.Pkt]++
		}
	}
	flushed := uint64(0)
	for pkt, n := range held {
		if n != 1 || tunneled[pkt] > 1 {
			t.Errorf("packet %d entered the hold interface %d times and the tunnel %d times", pkt, n, tunneled[pkt])
		}
		if tunneled[pkt] == 1 {
			flushed++
			if delivered[pkt] != 1 {
				t.Errorf("flushed packet %d delivered %d times, want once", pkt, delivered[pkt])
			}
		}
	}
	st := fa.Stats()
	if st.Buffered == 0 || st.Buffered != uint64(len(held)) {
		t.Fatalf("the agent buffered %d packets, the hold interface saw %d", st.Buffered, len(held))
	}
	t.Logf("agent buffered %d packets: %d flushed, %d dropped", st.Buffered, flushed, st.DropBuffer)
	if flushed+st.DropBuffer != st.Buffered {
		t.Error("a buffered packet was neither flushed nor counted as dropped")
	}
	if d := fa.Tunnel().Stats().DropNoDst; d != 0 {
		t.Errorf("agent tunnel counted %d drop_no_dst, want 0", d)
	}
}

// TestHandoffInboundTunnelIsVif0: the mobile host has one tunnel endpoint,
// vif0, which fills the host's decapsulation slot and is credited with every
// tunneled packet across the handoff itinerary; no vif1 exists.
func TestHandoffInboundTunnelIsVif0(t *testing.T) {
	w, err := scenario.Compile(1996, MustScenario("handoff"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	snap := w.Metrics.Snapshot()
	decapsulated := func(vif string) *metrics.MetricSnapshot {
		return snap.Get("tunnel.endpoint.decapsulated", metrics.L("host", "mh"), metrics.L("vif", vif))
	}
	if m := decapsulated("vif0"); m == nil || *m.Counter == 0 {
		t.Error("mh's vif0 decapsulated nothing; want every tunneled packet")
	}
	if decapsulated("vif1") != nil {
		t.Error("mh has vif1 rows; want one tunnel endpoint")
	}
	if mh, ok := w.Host("mh"); !ok {
		t.Error("no host mh")
	} else if mh.IfaceByName("vif1") != nil {
		t.Error("mh has a vif1 interface; want one VIF")
	}
}

// TestA3Shape: one home agent serves increasing visitor fleets with stable
// per-registration latency.
func TestA3Shape(t *testing.T) {
	// 300 is past one octet of host numbers: every host still needs its
	// own home and care-of address.
	res, err := RunA3(42, []int{1, 8, 32, 300})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Registered != row.MobileHosts {
			t.Errorf("n=%d: only %d registered", row.MobileHosts, row.Registered)
		}
		if row.TotalElapsed <= 0 {
			t.Errorf("n=%d: all done in %v", row.MobileHosts, row.TotalElapsed)
		}
		if row.Latency.N() < row.MobileHosts {
			t.Errorf("n=%d: %d latency samples", row.MobileHosts, row.Latency.N())
		}
	}
	// Mean latency must not explode with fleet size (HA is not the
	// bottleneck, per the paper's claim).
	first, last := res.Rows[0].Latency.Mean(), res.Rows[len(res.Rows)-1].Latency.Mean()
	if last > 20*first {
		t.Errorf("registration latency scaled %vx with fleet size", last/first)
	}
	t.Logf("\n%s", res)
}

// TestA4Shape: the handoff-strategy ordering must hold — cold loses the
// most, hot loses only radio in-flight packets, simultaneous bindings lose
// (almost) nothing.
func TestA4Shape(t *testing.T) {
	res, err := RunA4(42, 5)
	if err != nil {
		t.Fatal(err)
	}
	cold := float64(res.Cold.TotalLost()) / float64(res.Cold.Iterations())
	hot := float64(res.Hot.TotalLost()) / float64(res.Hot.Iterations())
	sim := float64(res.Simultaneous.TotalLost()) / float64(res.Simultaneous.Iterations())
	if !(cold > hot) {
		t.Errorf("cold (%.1f) should lose more than hot (%.1f)", cold, hot)
	}
	if sim > hot {
		t.Errorf("simultaneous (%.1f) should not lose more than hot (%.1f)", sim, hot)
	}
	if sim > 0.5 {
		t.Errorf("simultaneous bindings still lost %.1f pkts/handoff", sim)
	}
	if res.Duplicated == 0 {
		t.Error("no duplication happened")
	}
	t.Logf("\n%s", res)
}

// TestRadioThroughputEnvelope validates the radio model against the
// paper's own characterization: nominal 100 Kbit/s, 30-40 Kbit/s achieved.
func TestRadioThroughputEnvelope(t *testing.T) {
	res, err := RunThroughput(42, 50, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.BytesReceived < 47*1000 {
		t.Fatalf("received %d bytes", res.BytesReceived)
	}
	if res.Kbits < 30 || res.Kbits > 40 {
		t.Fatalf("radio throughput %.1f Kbit/s outside the paper's 30-40 Kbit/s", res.Kbits)
	}
	t.Logf("\n%s", res)
}

// TestE1AcrossSeeds guards the E1 shape against calibration luck: the
// "lose 0 or 1, mostly 0" result must hold for any seed, not just the one
// the tables were generated with.
func TestE1AcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep")
	}
	for _, seed := range []int64{1, 2, 3, 1996, 77} {
		res, err := RunE1(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Histogram.MaxLoss() > 1 {
			t.Errorf("seed %d: an iteration lost %d packets", seed, res.Histogram.MaxLoss())
		}
		if res.Histogram.Count(0) < E1Iterations/2 {
			t.Errorf("seed %d: only %d/20 lost nothing", seed, res.Histogram.Count(0))
		}
	}
}
