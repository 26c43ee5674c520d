package testbed

import (
	"testing"
	"time"

	"mosquitonet/internal/scenario"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/stack"
)

// ledgerKinds are the free lists every world here takes from on its loops:
// the per-operation records (sim.RecordsOf; a link.flight is a frame in the
// air, a mip.delayedReply a registration reply waiting out the home agent's
// processing delay), the packet pool (ip.Pool) and the wire-buffer lists
// (bufpool.Lists).
var ledgerKinds = []string{"stack.hop", "arp.pending", "link.bringUp", "link.flight", "mip.switchOp", "mip.delayedReply", "ip.Packet", "bufpool.buffer"}

// ledgersOut sums the ledgers of loops by kind. A frame that crossed a trunk
// took its wire buffer from one loop's lists and put it back on another's,
// so only the sum balances.
func ledgersOut(loops []*sim.Loop) map[string]sim.RecordLedger {
	out := map[string]sim.RecordLedger{}
	for _, l := range loops {
		for _, r := range l.RecordLedgers() {
			out[r.Kind] = r.Add(out[r.Kind])
		}
	}
	return out
}

// requirePoolBalance is the conservation check, over the ledgers of the
// world's loops and nothing else: once the world is idle between its
// periodic timers, every pooled packet made has been released except the
// fragments provably parked in a reassembly buffer (each owning its
// buffer), every wire buffer is back, and every per-operation record list
// balances — no hop holds a packet, no address is being resolved, no
// bring-up timer is out and no switch is walking. It reads counters;
// nothing is tracked per packet. The world is stepped in short slices
// because a beacon or a renewal may be in flight at the instant a run ends;
// a leak never reaches balance and fails with the numbers.
func requirePoolBalance(t *testing.T, hosts []*stack.Host, loops []*sim.Loop, step func(time.Duration)) {
	t.Helper()
	if made := ledgersOut(loops)["ip.Packet"].Taken; made < 1000 {
		t.Fatalf("the run made only %d pooled packets; it did not exercise the pool", made)
	}
	var parked int64
	var recs map[string]sim.RecordLedger
	for i := 0; i < 200; i++ {
		parked = 0
		for _, h := range hosts {
			parked += int64(h.Reassembler().Held())
		}
		recs = ledgersOut(loops)
		balanced := true
		for kind, r := range recs {
			want := int64(0)
			if kind == "ip.Packet" {
				want = parked
			}
			balanced = balanced && r.InUse() == want
		}
		if balanced {
			for _, kind := range ledgerKinds {
				r := recs[kind]
				if r.Taken == 0 {
					t.Errorf("the run took no %s; the check does not cover it", kind)
				}
				t.Logf("%s: %d taken, %d returned, %d on the lists", kind, r.Taken, r.Returned, r.Free)
			}
			t.Logf("balanced after %d settling steps with %d fragments parked", i, parked)
			return
		}
		step(7 * time.Millisecond)
	}
	t.Errorf("ledgers never balanced with %d fragments parked in reassembly: %+v", parked, recs)
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
// 100-host roaming fleet, and requires the packet pool, the wire-buffer
// lists and every record list to balance at the end of each, the fleet on
// one worker and on two.
func TestPoolBalanceAtQuiesce(t *testing.T) {
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
			requirePoolBalance(t, hosts, []*sim.Loop{w.Loop}, w.RunFor)
		})
	}
	// The fleet once on one worker and once on two: on two, each shard's
	// loop recycles through its own lists while the other's worker runs,
	// and the trunk lands the frames it carries on the far loop's.
	for _, workers := range []int{1, 2} {
		name := "fleet100"
		if workers > 1 {
			name = "fleet100_2workers"
		}
		t.Run(name, func(t *testing.T) {
			fl, err := buildScaleFleet(1996, 100, workers, scaleDuration)
			if err != nil {
				t.Fatal(err)
			}
			if got := fl.ss.Workers(); got != workers || len(fl.ss.Shards()) < 2 {
				t.Fatalf("the fleet runs %d shards on %d workers, want at least 2 on %d", len(fl.ss.Shards()), got, workers)
			}
			fl.ss.RunFor(scaleDuration)
			requirePoolBalance(t, fl.hosts, fl.ss.Shards(), func(d time.Duration) { fl.ss.RunFor(d) })
		})
	}
}
