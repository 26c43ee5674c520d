package mosquitonet_test

// One benchmark per experiment row in DESIGN.md's index. Each drives the
// same harness as cmd/experiments; custom metrics report the
// *virtual-time* quantities the paper measures (milliseconds of
// disruption, packets lost per handoff), while ns/op measures the
// simulator's wall-clock cost. Per-layer costs (marshal, checksum, encap,
// registration) are timed by `perf -layers`.

import (
	"flag"
	"fmt"
	"testing"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/mip"
	"mosquitonet/internal/scenario"
	"mosquitonet/internal/testbed"
)

// benchWorkers sets the shard worker-pool size for the sharded benchmarks
// (BenchmarkScaleRoaming). Deterministic outputs are identical at any
// value; only wall-clock time changes.
var benchWorkers = flag.Int("workers", 1, "worker goroutines for sharded benchmarks")

// virtMS renders a virtual duration as fractional milliseconds.
func virtMS(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// --- E1, F6, F7, T-RTT, A1: one full harness run per op ----------------------

func BenchmarkE1AddressSwitch(b *testing.B) {
	var window time.Duration
	for i := 0; i < b.N; i++ {
		r, err := testbed.RunE1(int64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		window += r.Window.Mean()
	}
	b.ReportMetric(virtMS(window)/float64(b.N), "virt-window-ms/op")
}

func BenchmarkF6DeviceSwitch(b *testing.B) {
	var blackout time.Duration
	hotLost := 0
	for i := 0; i < b.N; i++ {
		r, err := testbed.RunF6(int64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		blackout += r.Blackout.Mean()
		hotLost += r.Histograms[testbed.HotWiredToWireless].TotalLost() + r.Histograms[testbed.HotWirelessToWired].TotalLost()
	}
	// The paper bounds the cold-switch window at 1.25 s and sees hot
	// switches usually lose nothing.
	b.ReportMetric(virtMS(blackout)/float64(b.N), "virt-cold-blackout-ms/op")
	b.ReportMetric(float64(hotLost)/float64(b.N), "hot-pkts-lost/op")
}

func BenchmarkF7Registration(b *testing.B) {
	var total time.Duration
	for i := 0; i < b.N; i++ {
		r, err := testbed.RunF7(int64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		total += r.Total.Mean()
	}
	// The paper's Figure 7 total is 7.39 ms.
	b.ReportMetric(virtMS(total)/float64(b.N), "virt-reg-ms/op")
}

func BenchmarkRadioRTT(b *testing.B) {
	var radio time.Duration
	for i := 0; i < b.N; i++ {
		r, err := testbed.RunRTT(int64(i)+1, 5)
		if err != nil {
			b.Fatal(err)
		}
		radio += r.RadioRTT.Mean()
	}
	// The paper reports 200-250 ms.
	b.ReportMetric(virtMS(radio)/float64(b.N), "virt-rtt-ms/op")
}

func BenchmarkA1PolicyRTT(b *testing.B) {
	var tunnel, triangle time.Duration
	for i := 0; i < b.N; i++ {
		r, err := testbed.RunA1(int64(i)+1, 5)
		if err != nil {
			b.Fatal(err)
		}
		tunnel += r.TunnelRTTCampus.Mean()
		triangle += r.TriangleRTTCampus.Mean()
	}
	b.ReportMetric(virtMS(tunnel)/float64(b.N), "virt-tunnel-rtt-ms/op")
	b.ReportMetric(virtMS(triangle)/float64(b.N), "virt-triangle-rtt-ms/op")
}

// --- A2: handoff loss with and without a foreign agent ---------------------

func BenchmarkA2HandoffNoFA(b *testing.B) {
	lost := 0
	for i := 0; i < b.N; i++ {
		r, err := testbed.RunA2(int64(i)+1, 1)
		if err != nil {
			b.Fatal(err)
		}
		lost += r.WithoutFA.TotalLost()
	}
	b.ReportMetric(float64(lost)/float64(b.N), "pkts-lost/op")
}

func BenchmarkA2HandoffWithFA(b *testing.B) {
	lost := 0
	for i := 0; i < b.N; i++ {
		r, err := testbed.RunA2(int64(i)+1, 1)
		if err != nil {
			b.Fatal(err)
		}
		lost += r.WithFA.TotalLost()
	}
	b.ReportMetric(float64(lost)/float64(b.N), "pkts-lost/op")
}

// --- A3: home-agent scalability --------------------------------------------

func benchHAFleet(b *testing.B, n int) {
	for i := 0; i < b.N; i++ {
		res, err := testbed.RunA3(int64(i)+1, []int{n})
		if err != nil {
			b.Fatal(err)
		}
		row := res.Rows[0]
		if row.Registered != n {
			b.Fatalf("only %d/%d registered", row.Registered, n)
		}
		b.ReportMetric(float64(row.Latency.Mean().Microseconds())/1000, "virt-reg-ms/host")
	}
}

func BenchmarkA3HAScale(b *testing.B) {
	for _, n := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("hosts=%d", n), func(b *testing.B) { benchHAFleet(b, n) })
	}
}

// --- Scale: fleet-wide roaming (simulator hot-path baseline) ---------------

// BenchmarkScaleRoaming is the perf gate for the discrete-event core and
// the packet path: N mobile hosts roaming concurrently between two foreign
// subnets with echo traffic through the home agent. One op is one full
// fleet run, so B/op and allocs/op track the whole hot path (events,
// marshals, frame fan-out) and events/sec measures raw simulator speed.
// The same harness backs `experiments -exp scale` / BENCH_scale.json.
//
// -workers selects the shard worker-pool size (default 1, sequential).
// Results are byte-identical at any worker count; only wall-clock changes,
// so cross-worker ns/op comparisons are meaningful:
//
//	go test -bench ScaleRoaming -benchtime 3x -workers 4
func BenchmarkScaleRoaming(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("%dhosts", n), func(b *testing.B) {
			b.ReportAllocs()
			var events uint64
			for i := 0; i < b.N; i++ {
				row, _, err := testbed.RunScaleFleetWorkers(1996, n, *benchWorkers)
				if err != nil {
					b.Fatal(err)
				}
				if row.ProbesEchoed == 0 {
					b.Fatal("no echo traffic completed")
				}
				events += row.Events
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(events)/secs, "events/sec")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
			}
		})
	}
}

// --- Substrate benchmarks with no twin in perf -layers ----------------------

func BenchmarkPolicyTableLookup(b *testing.B) {
	pt := mip.NewPolicyTable()
	for i := 0; i < 64; i++ {
		pt.Set(ip.Prefix{Addr: ip.Addr{10, byte(i), 0, 0}, Bits: 16}, mip.PolicyTriangle)
	}
	dst := ip.MustParseAddr("10.40.1.2")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pt.Lookup(dst)
	}
}

func BenchmarkSimulatedSecondOfStreaming(b *testing.B) {
	// Wall-clock cost of simulating one virtual second of a 10 ms echo
	// stream through the full tunnel path — the simulator's bulk
	// throughput metric.
	tb := testbed.New(1)
	tb.MoveEthTo(tb.DeptNet)
	tb.MustConnectForeign(tb.Eth)
	probe, err := scenario.NewEchoProbe(tb.Loop, tb.CH, tb.MHTS, testbed.MHHomeAddr, 7, 10*time.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	probe.Start()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Run(time.Second)
	}
	b.StopTimer()
	if _, recv, _, _ := probe.Flow().Totals(); recv == 0 {
		b.Fatal("stream dead")
	}
}

// --- A4: handoff strategies --------------------------------------------------

func benchA4Strategy(b *testing.B, pick func(*testbed.A4Result) int) {
	lost := 0
	for i := 0; i < b.N; i++ {
		r, err := testbed.RunA4(int64(i)+1, 1)
		if err != nil {
			b.Fatal(err)
		}
		lost += pick(r)
	}
	b.ReportMetric(float64(lost)/float64(b.N), "pkts-lost/op")
}

func BenchmarkA4ColdStrategy(b *testing.B) {
	benchA4Strategy(b, func(r *testbed.A4Result) int { return r.Cold.TotalLost() })
}
func BenchmarkA4HotStrategy(b *testing.B) {
	benchA4Strategy(b, func(r *testbed.A4Result) int { return r.Hot.TotalLost() })
}
func BenchmarkA4SimultaneousStrategy(b *testing.B) {
	benchA4Strategy(b, func(r *testbed.A4Result) int { return r.Simultaneous.TotalLost() })
}
