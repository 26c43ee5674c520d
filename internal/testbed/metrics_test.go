package testbed

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/metrics"
	"mosquitonet/internal/scenario"
)

// handoffScenario attaches the mobile host on the visited Ethernet, streams
// UDP echoes to its home address, performs a same-subnet address switch
// mid-stream, and quiesces. It returns the testbed still open for
// inspection; callers must Close it.
func handoffScenario(t *testing.T, seed int64) *Testbed {
	t.Helper()
	tb := New(seed)
	tb.MoveEthTo(tb.DeptNet)
	tb.MustConnectForeign(tb.Eth)

	probe, err := scenario.NewEchoProbe(tb.Loop, tb.CH, tb.MHTS, MHHomeAddr, 7, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	probe.Start()
	tb.Run(time.Second)

	done := false
	var swErr error
	tb.MH.SwitchAddress(ip.MustParseAddr("36.8.0.200"), func(err error) { swErr, done = err, true })
	tb.Run(5 * time.Second)
	if !done || swErr != nil {
		t.Fatalf("address switch: done=%v err=%v", done, swErr)
	}
	tb.Run(time.Second)
	probe.Pause()
	tb.Run(2 * time.Second) // drain in-flight packets
	return tb
}

func TestHandoffTunnelConservation(t *testing.T) {
	tb := handoffScenario(t, 7)

	mh := tb.MH.Tunnel().Stats()
	ha := tb.HA.Tunnel().Stats()

	// Reverse path (MH -> HA) runs over the lossless visited Ethernet, so
	// after quiescing every packet the mobile host encapsulated must be
	// accounted for at the home agent: decapsulated or dropped by the peer
	// or inner-packet checks.
	if mh.Encapsulated != ha.Decapsulated+ha.DropPeer+ha.DropBadInner {
		t.Errorf("reverse tunnel leak: MH encap %d != HA decap %d + drop_peer %d + drop_bad_inner %d",
			mh.Encapsulated, ha.Decapsulated, ha.DropPeer, ha.DropBadInner)
	}
	if mh.Encapsulated == 0 {
		t.Error("no reverse-tunnel traffic flowed")
	}
	// Forward path (HA -> MH) may lose packets tunneled to the stale
	// care-of address during the switch window, never gain them.
	if ha.Encapsulated < mh.Decapsulated {
		t.Errorf("forward tunnel gained packets: HA encap %d < MH decap %d", ha.Encapsulated, mh.Decapsulated)
	}
	if mh.Decapsulated == 0 {
		t.Error("no forward-tunnel traffic flowed")
	}

	// The registry view must agree with the struct view.
	snap := tb.Metrics.Snapshot()
	enc := snap.Get("tunnel.endpoint.encapsulated", metrics.L("host", "mh"), metrics.L("vif", "vif0"))
	if enc == nil || enc.Counter == nil || *enc.Counter != mh.Encapsulated {
		t.Errorf("registry encap view disagrees with Stats(): %+v vs %d", enc, mh.Encapsulated)
	}

	// The switch re-registered, so the registration-latency histogram has
	// observations.
	lat := snap.Get("mip.mh.registration_latency", metrics.L("host", "mh"))
	if lat == nil || lat.Histogram == nil || lat.Histogram.Count < 1 {
		t.Errorf("registration latency histogram empty: %+v", lat)
	}
}

func TestHandoffSnapshotDeterminism(t *testing.T) {
	render := func() []byte {
		tb := handoffScenario(t, 11)
		var buf bytes.Buffer
		if err := tb.SnapshotMetrics("handoff").WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed handoff snapshots are not byte-identical")
	}
}

func TestPacketLifecycleTimeline(t *testing.T) {
	tb := handoffScenario(t, 13)

	// Find a packet the home agent encapsulated and follow its lifecycle:
	// it must reach the mobile host's VIF and be decapsulated.
	var traced uint64
	for _, e := range tb.Packets.Events() {
		if e.Point == "tunnel.encap" && e.Node == "router" {
			traced = e.Pkt
		}
	}
	if traced == 0 {
		t.Fatal("no tunnel.encap event recorded at the home agent")
	}
	tl := tb.Packets.Timeline(traced)
	points := make(map[string]bool)
	for _, e := range tl {
		points[e.Node+"/"+e.Point] = true
	}
	if !points["router/tunnel.encap"] || !points["mh/tunnel.decap"] {
		var got []string
		for _, e := range tl {
			got = append(got, fmt.Sprintf("%v %s %s %s", e.At, e.Node, e.Point, e.Detail))
		}
		t.Fatalf("timeline for pkt %d missing encap/decap hops:\n%v", traced, got)
	}
	// Events within one packet's timeline are causally ordered.
	for i := 1; i < len(tl); i++ {
		if tl[i].At < tl[i-1].At {
			t.Fatalf("timeline out of order at %d: %+v", i, tl)
		}
	}
}
