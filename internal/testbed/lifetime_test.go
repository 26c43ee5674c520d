package testbed

import (
	"testing"
	"time"

	"mosquitonet/internal/bufpool"
	"mosquitonet/internal/ip"
	"mosquitonet/internal/scenario"
	"mosquitonet/internal/stack"
)

// poolsOut reads both pools: pooled packets that have an owner and pooled
// buffers someone holds, process-wide. The counters count only between
// ip.CountPools(true) and (false) and this package's tests run one at a
// time, so a test turns them on, reads them before it builds a world and
// after it ran it.
func poolsOut() (packets, buffers int64) {
	return ip.ReadPoolStats().Outstanding(), bufpool.ReadStats().Outstanding()
}

// requirePoolBalance is the conservation check: once the world is idle
// between its periodic timers, every pooled packet made since the baseline
// has been released except the fragments provably parked in a reassembly
// buffer — each of which owns one pooled buffer — and every other pooled
// buffer is back too. It reads counters; nothing is tracked per packet. The
// world is stepped in short slices because a beacon or a renewal may be in
// flight at the instant a run ends; a leak never reaches balance and fails
// with the numbers.
func requirePoolBalance(t *testing.T, pkts0, bufs0 int64, made0 uint64, hosts []*stack.Host, step func(time.Duration)) {
	t.Helper()
	if made := ip.ReadPoolStats().Made - made0; made < 1000 {
		t.Fatalf("the run made only %d pooled packets; it did not exercise the pool", made)
	}
	var pkts, bufs, parked int64
	for i := 0; i < 200; i++ {
		parked = 0
		for _, h := range hosts {
			parked += int64(h.Reassembler().Held())
		}
		pkts, bufs = poolsOut()
		if pkts-pkts0 == parked && bufs-bufs0 == parked {
			t.Logf("balanced after %d settling steps with %d fragments parked", i, parked)
			return
		}
		step(7 * time.Millisecond)
	}
	t.Errorf("pools never balanced: %+d pooled packets and %+d pooled buffers out, %d fragments parked in reassembly",
		pkts-pkts0, bufs-bufs0, parked)
}

func worldHosts(t *testing.T, w *scenario.World) []*stack.Host {
	t.Helper()
	var hosts []*stack.Host
	for _, name := range w.HostNames() {
		h, ok := w.Host(name)
		if !ok {
			t.Fatalf("world lists host %q and does not have it", name)
		}
		hosts = append(hosts, h)
	}
	return hosts
}

// TestPoolBalanceAtQuiesce runs the Figure-5 handoff itinerary under its UDP
// probe, the loaded-handoff itinerary with campus-sized messages (TCP, the
// tunnel, fragments at the 1050-byte department MTU, a handoff) and the
// 100-host roaming fleet, and requires both pools to balance at the end of
// each.
func TestPoolBalanceAtQuiesce(t *testing.T) {
	ip.CountPools(true)
	defer ip.CountPools(false)
	if testing.Short() {
		t.Skip("runs two itineraries and a fleet; skipped in -short")
	}
	loaded := MustScenario("loadedhandoff")
	for i := range loaded.Traffic.HTTP.Flows {
		loaded.Traffic.HTTP.Flows[i].Size = 4096
	}
	loaded.Itinerary = loaded.Itinerary[:7] // the next step takes the 35 kbit/s radio, which cannot carry this
	// The department Ethernet at an MTU of 1050, as the campus_app workload
	// has it: a full TCP segment passes, its encapsulation fragments.
	narrowed := false
	for i := range loaded.Topology.Subnets {
		if sn := &loaded.Topology.Subnets[i]; sn.Name == "dept" {
			sn.Medium = scenario.Medium{Kind: "custom", Name: "ethernet-mtu1050",
				Latency: scenario.Duration(150 * time.Microsecond), LatencyJitter: scenario.Duration(30 * time.Microsecond),
				BitRate: 10_000_000, MTU: 1050}
			narrowed = true
		}
	}
	if !narrowed {
		t.Fatal("the loadedhandoff spec has no dept subnet to narrow")
	}
	for _, spec := range []*scenario.Spec{MustScenario("handoff"), loaded} {
		t.Run(spec.Name, func(t *testing.T) {
			pkts0, bufs0 := poolsOut()
			made0 := ip.ReadPoolStats().Made
			w, err := scenario.Compile(1996, spec)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Run(); err != nil {
				t.Fatal(err)
			}
			hosts := worldHosts(t, w)
			if spec == loaded {
				var frags, reassembled uint64
				for _, h := range hosts {
					frags += h.Stats().FragmentsSent
					reassembled += h.Reassembler().Stats().Reassembled
				}
				if frags == 0 || reassembled == 0 {
					t.Fatalf("the loaded run sent %d fragments and reassembled %d datagrams; the check needs both", frags, reassembled)
				}
			}
			requirePoolBalance(t, pkts0, bufs0, made0, hosts, w.RunFor)
		})
	}
	t.Run("fleet100", func(t *testing.T) {
		pkts0, bufs0 := poolsOut()
		made0 := ip.ReadPoolStats().Made
		fl, err := buildScaleFleet(1996, 100, 1)
		if err != nil {
			t.Fatal(err)
		}
		fl.ss.RunFor(scaleDuration)
		requirePoolBalance(t, pkts0, bufs0, made0, fl.cacheHosts, func(d time.Duration) { fl.ss.RunFor(d) })
	})
}
