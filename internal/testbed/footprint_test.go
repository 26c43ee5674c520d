package testbed

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

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

// The host-footprint benchmark weighs a resident (constructed, not yet run)
// scale fleet: the marginal live heap (bytes/host, after GC) and
// construction allocations (allocs/host) of one mobile host, from two fleets
// in the same scaleShardCount tier, so fixed infrastructure cancels out.
const (
	footprintSmallFleet = 300
	footprintLargeFleet = 800
)

// weighFleet builds an n-host fleet, runs it for run (none: resident, as
// built) and returns its live heap bytes (after a GC pass, relative to the
// pre-build heap) and the number of allocations construction performed.
func weighFleet(tb testing.TB, n int, run time.Duration) (liveBytes, mallocs uint64) {
	var before, mid, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fl, err := buildScaleFleet(1996, n, 1, scaleDuration)
	if err != nil {
		tb.Fatal(err)
	}
	runtime.ReadMemStats(&mid)
	if run > 0 {
		fl.ss.RunFor(run)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	liveBytes = after.HeapAlloc - before.HeapAlloc
	mallocs = mid.Mallocs - before.Mallocs
	runtime.KeepAlive(fl)
	return liveBytes, mallocs
}

// measureHostFootprint returns the marginal bytes/host and allocs/host of
// one mobile host in the scale topology.
func measureHostFootprint(tb testing.TB, run time.Duration) (bytesPerHost, allocsPerHost float64) {
	smallBytes, smallAllocs := weighFleet(tb, footprintSmallFleet, run)
	largeBytes, largeAllocs := weighFleet(tb, footprintLargeFleet, run)
	hosts := float64(footprintLargeFleet - footprintSmallFleet)
	return float64(largeBytes-smallBytes) / hosts, float64(largeAllocs-smallAllocs) / hosts
}

// BenchmarkHostFootprint reports the per-host memory footprint of the
// scale topology. It pins the per-host memory diet by numbers: CI fails
// the run if bytes/host regresses past the budget (see
// TestHostFootprintBudget for the enforced bound).
func BenchmarkHostFootprint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bytesPerHost, allocsPerHost := measureHostFootprint(b, 0)
		b.ReportMetric(bytesPerHost, "bytes/host")
		b.ReportMetric(allocsPerHost, "allocs/host")
	}
	b.ReportMetric(0, "ns/op") // wall time is meaningless here; the metrics above are the result
}

// Budgets for TestHostFootprintBudget, ~8 % above the measured 3,117 B and
// 49.3 allocs per host (3,188 B and 51.7 under -race): one more
// pointer-sized field per host passes; an ICMP endpoint and a reassembler
// built with every host, a Config copy in every ARP cache and a
// registration record in every mobile host (304 B a host together, before
// the first two were built on first use and the record became the loop's),
// a second tunnel endpoint per mobile host (the encapsulated-direct vif1 every
// host built until the route decision's next hop named the tunnel's far
// end, 232 B and 6 allocs), a collector closure per host object (~230 B and
// 6 allocs a mobile host, before they became the loop's), a per-host metric
// roster or per-host hook closures (~24.4 KB and ~733 allocs before the
// diet) do not.
const (
	footprintBytesBudget  = 3365
	footprintAllocsBudget = 53
)

// TestHostFootprintBudget is the memory-diet regression guard: it fails
// if the marginal cost of a mobile host exceeds the budgeted bytes or
// allocations. Skipped under -short because it builds two fleets.
func TestHostFootprintBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("footprint measurement builds two fleets; skipped in -short")
	}
	bytesPerHost, allocsPerHost := measureHostFootprint(t, 0)
	t.Logf("footprint: %.0f bytes/host, %.1f allocs/host (budget %d bytes, %d allocs)",
		bytesPerHost, allocsPerHost, footprintBytesBudget, footprintAllocsBudget)
	if bytesPerHost > footprintBytesBudget {
		t.Errorf("bytes/host = %.0f, budget %d", bytesPerHost, footprintBytesBudget)
	}
	if allocsPerHost > footprintAllocsBudget {
		t.Errorf("allocs/host = %.1f, budget %d", allocsPerHost, footprintAllocsBudget)
	}
}

// roamedFootprintBudget is TestRoamedHostFootprintBudget's bound, ~8 % above
// the measured 3,652–3,663 B (3,718 under -race). A host that kept its own
// idle records — a switch walk, bring-up waits, a resolution and hop
// records, as every host did until they became the loop's — weighed 894 B
// more; one that kept its registration exchange, 96 B more.
const roamedFootprintBudget = 3950

// TestRoamedHostFootprintBudget weighs a mobile host after its fleet has
// roamed and probed for the whole run and quiesced: what a host retains
// between operations. Per-operation records (hops, switch walks, bring-up
// waits, resolutions) are the loop's, so a host that has roamed keeps none
// of its own. Skipped under -short because it builds and runs two fleets.
func TestRoamedHostFootprintBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("footprint measurement builds and runs two fleets; skipped in -short")
	}
	bytesPerHost, _ := measureHostFootprint(t, scaleDuration+time.Second)
	t.Logf("after the run: %.0f bytes/host (budget %d bytes)", bytesPerHost, roamedFootprintBudget)
	if bytesPerHost > roamedFootprintBudget {
		t.Errorf("bytes/host after the run = %.0f, budget %d", bytesPerHost, roamedFootprintBudget)
	}
}

// TestSteadyStateAllocatesOnlyRecords: past its warm-up, a world's second
// span allocates only what it records (histogram samples, FlowTracker
// records, spans and flat events with their text), what it names with its
// reason and counter, and steadySlack. A record costs what the same records
// cost on a fresh store, a named allocation its size class; neither is fitted
// to a reading, so a new per-event, per-handoff or per-byte allocation fails
// at any run length.
func TestSteadyStateAllocatesOnlyRecords(t *testing.T) {
	requireSteadyState(t, "fleet", "handoff", "handoff with spans", "loadedhandoff", "campus")
}

// The allocation guards keep the names they had while each held a budget
// fitted to its last reading; each now holds its own world to the invariant.

func TestAllocsPerEventBudget(t *testing.T) { requireSteadyState(t, "fleet") }

func TestAllocsPerHandoffBudget(t *testing.T) {
	requireSteadyState(t, "handoff", "handoff with spans")
}

func TestTelemetryAllocsPerEventBudget(t *testing.T) { requireSteadyState(t, "loadedhandoff") }

func TestStreamCopyBudget(t *testing.T) { requireSteadyState(t, "campus") }

// steadyWorlds are the worlds the invariant holds: each runs past its warm-up
// and returns what its second span allocated and what it may allocate.
var steadyWorlds = map[string]func(*testing.T) (uint64, []allowance){
	"fleet":              steadyFleet,
	"handoff":            func(t *testing.T) (uint64, []allowance) { return steadyHandoff(t, false) },
	"handoff with spans": func(t *testing.T) (uint64, []allowance) { return steadyHandoff(t, true) },
	"loadedhandoff":      func(t *testing.T) (uint64, []allowance) { return steadyCampus(t, 0, 0, 0) },
	"campus":             func(t *testing.T) (uint64, []allowance) { return steadyCampus(t, 512, 4096, 2<<20) },
}

// requireSteadyState holds the named worlds to the invariant, one subtest
// each. The collector is off.
func requireSteadyState(t *testing.T, worlds ...string) {
	if testing.Short() {
		t.Skip("runs worlds past warm-up, skipped in -short")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, name := range worlds {
		t.Run(name, func(t *testing.T) {
			allocated, allowed := steadyWorlds[name](t)
			limit := uint64(steadySlack)
			for _, a := range allowed {
				t.Logf("%9d B  %s", a.bytes, a.what)
				limit += a.bytes
			}
			if t.Logf("%9d B  allocated, %d B allowed with the slack", allocated, limit); allocated > limit {
				t.Errorf("the second span allocated %d B past its records and named allocations", allocated-limit)
			}
		})
	}
}

// steadySlack is the one stated constant, for what no counter names: the
// runtime's own allocations, a map that grows a bucket in one span only, and
// a TCP receiver's copies of segments past a hole while a handoff's losses are
// repaired (ConnStats.DupAcksSent, which no compiled world exposes). One more
// 48-byte object per delivery, handoff or stream segment costs more than this.
const steadySlack = 64 << 10

// allowance is what a span may allocate for one record kind or named cause.
type allowance struct {
	what  string
	bytes uint64
}

var sink []byte // keeps sizeClass's allocations on the heap

// allocatedBy returns the bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// sizeClass is what the heap charges for an object of n bytes: its size
// class, or its share of a 16-byte block from the tiny allocator.
func sizeClass(n int) uint64 {
	return (allocatedBy(func() {
		for i := 0; i < 64; i++ {
			sink = make([]byte, n)
		}
	}) + 63) / 64
}

// samples returns what growing fresh histograms to the hosts' registrations,
// a latency sample each, costs since the last call.
func samples(hosts []*scaleMH) func() uint64 {
	hs := make([]metrics.Histogram, len(hosts))
	return func() uint64 {
		return allocatedBy(func() {
			for i, h := range hosts {
				for n := uint64(hs[i].N()); n < h.m.Stats().Registrations; n++ {
					hs[i].Observe(0)
				}
			}
		})
	}
}

// spansCost is what recording spans costs on a fresh tracer holding at most
// limit (0: all), filled first. A value no earlier span shares the bytes of
// (as a name or a constant) was rendered for its span, and is copied.
func spansCost(spans []trace.Span, limit int) uint64 {
	shared := map[*byte]bool{}
	var rendered []bool
	for _, sp := range spans {
		for _, a := range sp.Attrs {
			rendered = append(rendered, !shared[unsafe.StringData(a.Value)])
			shared[unsafe.StringData(a.Value)] = true
		}
	}
	tr := trace.New(sim.New(0))
	tr.SetCapacity(limit)
	for i := 0; i < limit; i++ {
		tr.StartChild(nil, spans[i%len(spans)].Actor, "").Done()
	}
	return allocatedBy(func() {
		for _, s := range spans {
			sp := tr.StartChild(nil, s.Actor, s.Kind)
			for _, a := range s.Attrs {
				if rendered[0] {
					a.Value = strings.Clone(a.Value)
				}
				sp.SetAttr(a.Key, a.Value)
				rendered = rendered[1:]
			}
			sp.Done()
		}
	})
}

// steadyFleet is the 100-host scale tier on one worker, warmed past each host's
// first use of its second interface (4 s in: ARP, route, bring-up records).
func steadyFleet(t *testing.T) (uint64, []allowance) {
	const warm, span = 5 * time.Second, 4 * time.Second
	fl, err := buildScaleFleet(1996, 100, 1, warm+2*span)
	if err != nil {
		t.Fatal(err)
	}
	fl.ss.RunFor(warm + span)
	sampled, crossed := samples(fl.fleet), fl.ss.CrossDelivered()
	sampled()
	allocated := allocatedBy(func() { fl.ss.RunFor(span) })
	crossed = fl.ss.CrossDelivered() - crossed
	return allocated, []allowance{
		{"registration latency samples", sampled()},
		{fmt.Sprintf("%d cross-shard frames: the trunk hook's Frame and the closure posting it (ShardSet.CrossDelivered)", crossed),
			crossed * (sizeClass(int(unsafe.Sizeof(link.Frame{}))) + sizeClass(int(unsafe.Sizeof([3]uintptr{}))))}, // the closure: code, network, frame
	}
}

// steadyHandoff is perf's handoff_storm at 64 hosts on one loop: each 250 ms
// round every host switches between static care-of addresses on two subnets,
// probing every fourth; a tracer is bounded. 8 warm-up rounds, two spans of 40.
func steadyHandoff(t *testing.T, traced bool) (uint64, []allowance) {
	loop := sim.New(1996)
	var tracer *trace.Tracer
	if traced {
		tracer = trace.New(loop)
		tracer.SetCapacity(1 << 12)
	}
	pfx := func(i byte) ip.Prefix { return ip.Prefix{Addr: ip.Addr{10, i, 0, 0}, Bits: 16} }
	at := func(i byte, host int) ip.Addr { return ip.Addr{10, i, byte(host >> 8), byte(host)} }
	nets, ifcs := [3]*link.Network{}, [3]*stack.Iface{}
	router := stack.NewHost(loop, "router", stack.Config{})
	for i, name := range []string{"home", "dept", "campus"} {
		nets[i] = link.NewNetwork(loop, name, link.Ethernet())
		ifcs[i] = scenario.AddRouterIface(router, nets[i], at(byte(i), 1), pfx(byte(i)), stack.IfaceOpts{})
	}
	router.SetForwarding(true)
	if _, err := mip.NewHomeAgent(transport.NewStack(router), mip.HomeAgentConfig{
		HomeIface: ifcs[0], HomePrefix: pfx(0), ProcessingDelay: 1480 * time.Microsecond, Tracer: tracer,
	}); err != nil {
		t.Fatal(err)
	}
	ch, _ := scenario.AttachEndHost(stack.NewHost(loop, "ch", stack.Config{}), nets[1], "ch-eth", at(1, 7), pfx(1), at(1, 1), stack.IfaceOpts{})
	if _, err := ch.Echo(ip.Unspecified, 7); err != nil {
		t.Fatal(err)
	}
	fleet := make([]*scaleMH, 64)
	for j := range fleet {
		ts := transport.NewStack(stack.NewHost(loop, fmt.Sprintf("mh%02d", j), stack.Config{}))
		h := &scaleMH{m: mip.NewMobileHost(ts, mip.MobileHostConfig{
			HomeAddr: at(0, 100+j), HomePrefix: pfx(0), HomeAgent: at(0, 1), Lifetime: time.Minute, Tracer: tracer,
		})}
		var err error
		for d := range h.mis {
			dev := link.NewDevice(loop, fmt.Sprintf("eth%d", d), 0, 0)
			dev.Attach(nets[1+d])
			if h.mis[d], err = h.m.AddInterface(dev.Name(), dev, false, &mip.StaticConfig{
				Addr: at(byte(1+d), 100+j), Prefix: pfx(byte(1 + d)), Gateway: at(byte(1+d), 1),
			}); err != nil {
				t.Fatal(err)
			}
		}
		if h.sock, err = ts.UDP(ip.Unspecified, 0, func(transport.Datagram) {}); err != nil {
			t.Fatal(err)
		}
		fleet[j] = h
	}
	round, probe := 0, []byte("scale-probe")
	roam := func(rounds int) {
		for end := round + rounds; round < end; round++ {
			for _, h := range fleet {
				if h.m.ConnectForeign(h.mis[round%2], nil); round%4 == 0 {
					h.sock.SendTo(at(1, 7), 7, probe)
				}
			}
			loop.RunFor(250 * time.Millisecond)
		}
	}
	roam(8 + 40)
	sampled := samples(fleet)
	sampled()
	spans := tracer.DroppedSpans() + uint64(len(tracer.Spans()))
	allocated := allocatedBy(func() { roam(40) })
	allowed := []allowance{{"registration latency samples", sampled()}}
	for _, h := range fleet {
		if n := h.m.Stats().Registrations; n != uint64(round) {
			t.Fatalf("a host registered %d times in %d rounds, not once a round", n, round)
		}
	}
	if traced {
		// The ring keeps the last 4,096 spans, all alike: each span costs
		// their mean, evicted or not.
		kept := tracer.Spans()
		spans = tracer.DroppedSpans() + uint64(len(kept)) - spans
		allowed = append(allowed, allowance{fmt.Sprintf("%d spans and their attributes", spans),
			spansCost(kept, 1<<12) * spans / uint64(len(kept))})
	}
	return allocated, allowed
}

// campusRun is one campus run's allocation, records' cost and counters.
type campusRun struct{ allocated, carried, records, icmp, noRoute, topics, httpLines, open, openSize uint64 }

// runCampus runs loadedhandoff, every telemetry store on, with mqttSize-byte
// MQTT and httpSize-byte HTTP messages (0: the spec's own), walking its wired
// steps after connect-home spans times (the radio next cannot carry the load).
// It keeps the least of three runs' allocation: runtime noise only adds.
func runCampus(t *testing.T, spans, mqttSize, httpSize int) (r campusRun) {
	spec := MustScenario("loadedhandoff")
	for i := range spec.Traffic.MQTT.Pubs {
		if mqttSize != 0 {
			spec.Traffic.MQTT.Pubs[i].Size = mqttSize
		}
	}
	for i := range spec.Traffic.HTTP.Flows {
		if httpSize != 0 {
			spec.Traffic.HTTP.Flows[i].Size = httpSize
		}
	}
	steps := slices.Clip(spec.Itinerary[:1])
	for i := 0; i < spans; i++ {
		steps = append(steps, spec.Itinerary[1:7]...)
	}
	spec.Itinerary = steps
	var w *scenario.World
	var res *scenario.RunResult
	for try := 0; try < 3; try++ {
		var err error
		if w, err = scenario.Compile(1996, spec); err != nil {
			t.Fatal(err)
		}
		runtime.GC() // twice: every run starts with empty pools
		runtime.GC()
		if allocated := allocatedBy(func() { res, err = w.Run() }); try == 0 || allocated < r.allocated {
			r.allocated = allocated
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range res.Flows {
		sent, received, _, _ := f.Tracker.Totals()
		if f.Proto != "udp" {
			r.carried += 2 * uint64(received) * uint64(f.Size)
		}
		if f.Tracker.Name() == "http/open" {
			r.open, r.openSize = uint64(sent), uint64(f.Size)
		}
		r.records += allocatedBy(func() {
			ft := stats.NewFlowTracker("")
			for seq := 1; seq <= sent; seq++ {
				ft.Sent(uint64(seq), 0)
			}
			for seq := 1; seq <= received; seq++ {
				ft.Received(uint64(seq), 0)
			}
		})
	}
	tr, events := trace.New(sim.New(0)), len(w.Tracer.Events())
	r.records += spansCost(w.Tracer.Spans(), 0) + allocatedBy(func() {
		for ; events > 0; events-- {
			tr.RecordOps("", "", nil, trace.Operands{})
		}
	}) + samples([]*scaleMH{{m: w.Mobiles["mh"]}})()
	for _, m := range w.Metrics.Snapshot().Metrics {
		switch m.Name {
		case "stack.icmp.sent":
			r.icmp += *m.Counter
		case "stack.host.drop_no_route":
			r.noRoute += *m.Counter
		}
	}
	r.topics = res.Broker.Publishes + res.Broker.Delivered
	r.httpLines = res.HTTPServer.Requests + res.HTTPServer.Responses
	return r
}

// steadyCampus: the second span is what walking the wired steps twice
// allocates and records beyond walking them once, at the given message sizes
// (0: the spec's own). With minCarried set, the second span must carry that
// many stream bytes.
func steadyCampus(t *testing.T, mqttSize, httpSize int, minCarried uint64) (uint64, []allowance) {
	a, b := runCampus(t, 1, mqttSize, httpSize), runCampus(t, 2, mqttSize, httpSize)
	if carried := b.carried - a.carried; carried < minCarried {
		t.Fatalf("the second span carried %d stream bytes; a per-byte copy needs %d to show", carried, minCarried)
	}
	const block = 4 << 10 // a send-buffer block; a request's head is under 64 bytes
	backlog := (b.open - a.open) * (b.openSize + 64)
	named := func(what string, n uint64, size int) allowance {
		return allowance{fmt.Sprintf("%d %s", n, what), n * sizeClass(size)}
	}
	return b.allocated - a.allocated, []allowance{
		{"spans with their attributes, flat events, latency samples and FlowTracker records", b.records - a.records},
		named("ICMP error bodies, the offender's header and 8 bytes (stack.icmp.sent)", b.icmp-a.icmp, ip.HeaderLen+8),
		named("failed route lookups, each boxing its destination in the error (stack.host.drop_no_route)", b.noRoute-a.noRoute, len(ip.Addr{})),
		named("MQTT topics a parser hands on as a string (BrokerStats.Publishes+Delivered)", b.topics-a.topics, len("telemetry/mh/0")),
		named("HTTP start lines a parser hands on as a string (HTTPServerStats.Requests+Responses)", b.httpLines-a.httpLines, len("POST /closed HTTP/1.0")),
		{"the open-loop HTTP flow's send buffer, a block per 4 KiB it writes (its FlowTracker's sent count): its connection " +
			"stalls at the first cold switch, each write re-arming the retransmission timer before it can fire (ROADMAP)",
			(backlog + block - 1) / block * block},
	}
}

// liveHeap returns the heap in use after a full collection.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// droppedWorldsLimit is what the heap may grow across worlds that were built
// and dropped. One Figure-5 world that stays reachable holds about 84 KB, so
// two hundred of them read 16.8 MB.
const droppedWorldsLimit = 2 << 20

// requireCollected calls build 200 times and requires the heap afterwards to
// hold none of what it made.
func requireCollected(t *testing.T, build func(i int)) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds 200 worlds; skipped in -short")
	}
	base := liveHeap()
	for i := 0; i < 200; i++ {
		build(i)
	}
	if grown := int64(liveHeap()) - int64(base); grown > droppedWorldsLimit {
		t.Errorf("heap grew %d bytes across 200 built and dropped worlds, want under %d", grown, droppedWorldsLimit)
	}
}

// TestWorldCollectedWithoutClose: a Figure-5 world compiled from its spec,
// with every telemetry store on and the mobile host attached, is garbage the
// moment it is dropped. Nobody releases anything: there is no process-wide
// table for a loop to be left in.
func TestWorldCollectedWithoutClose(t *testing.T) {
	requireCollected(t, func(i int) {
		tb := New(int64(i))
		tb.MustConnectHome()
	})
}

// TestAbandonedBuildLeavesNothing: a build that stops half-way — Compile
// returning an error after it attached the telemetry and built the hosts, or
// a hand-written builder doing the same — leaves nothing behind either.
func TestAbandonedBuildLeavesNothing(t *testing.T) {
	// The validator knows r2 is a router; only the injector, once the world
	// is built, knows it has no home agent to crash.
	spec := MustScenario("figure5")
	spec.Topology.Subnets = append(spec.Topology.Subnets, scenario.Subnet{
		Name: "annex", Network: "net-36.50", Prefix: "36.50.0.0/16", Medium: scenario.Medium{Kind: "ethernet"},
	})
	spec.Topology.Routers = append(spec.Topology.Routers, scenario.Router{
		Name:   "r2",
		Ifaces: []scenario.RouterIface{{Subnet: "annex", Addr: "36.50.0.1"}},
	})
	spec.Faults = []scenario.Fault{{Kind: "ha-crash", Router: "r2", For: scenario.Duration(time.Second)}}
	t.Run("compile", func(t *testing.T) {
		requireCollected(t, func(i int) {
			_, err := scenario.Compile(int64(i), spec)
			if err == nil || !strings.Contains(err.Error(), "no home agent on router") {
				t.Fatalf("Compile = %v, want the injector's refusal of a built world", err)
			}
		})
	})
	t.Run("by hand", func(t *testing.T) {
		requireCollected(t, func(i int) {
			loop := sim.New(int64(i))
			metrics.Enable(loop)
			metrics.TracePackets(loop, 0)
			trace.New(loop)
			n := link.NewNetwork(loop, "n", link.Ethernet())
			for j := 0; j < 40; j++ {
				h := stack.NewHost(loop, fmt.Sprintf("h%d", j), stack.Config{})
				scenario.AttachEndHost(h, n, "eth0", ip.Addr{10, 0, 0, byte(j + 2)}, ip.MustParsePrefix("10.0.0.0/24"), ip.Addr{10, 0, 0, 1}, stack.IfaceOpts{})
			}
		})
	})
}

// TestDroppedWorldIsCollected builds a large fleet, drops it, builds a
// small one and requires the heap to hold the small one only. A Host reaches
// its loop, its heap and every peer, so anything process-wide that still
// pointed at one host of the first world — a chunk shared with the second, a
// registry keyed by its loop — would keep all of it alive.
func TestDroppedWorldIsCollected(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2,000-host fleet; skipped in -short")
	}
	base := liveHeap()
	// Built and dropped: nothing refers to it, and nothing was told it is done.
	if _, err := buildScaleFleet(1996, 2000, 1, scaleDuration); err != nil {
		t.Fatal(err)
	}
	small, err := buildScaleFleet(1996, 10, 1, scaleDuration)
	if err != nil {
		t.Fatal(err)
	}
	// A 10-host fleet weighs about 0.2 MB and the 2,000-host one 11 MB.
	if grown := int64(liveHeap()) - int64(base); grown > droppedWorldsLimit {
		t.Errorf("heap grew %d bytes across a dropped 2,000-host fleet and a live 10-host one, want under %d", grown, droppedWorldsLimit)
	}
	runtime.KeepAlive(small)
}
