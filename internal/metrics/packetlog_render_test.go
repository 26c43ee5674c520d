package metrics_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/metrics"
	"mosquitonet/internal/sim"
)

// detailRow is one hop detail both ways: the operands a call site passes
// now, and the string the same call site used to concatenate, built from
// the ip and link types' own String methods.
type detailRow struct {
	kind  metrics.DetailKind
	point string
	typed metrics.Detail
	eager string
}

// detailRows draws random operands and returns one row per detail kind.
func detailRows(rng *rand.Rand) []detailRow {
	protos := []ip.Protocol{ip.ProtoICMP, ip.ProtoIPIP, ip.ProtoTCP, ip.ProtoUDP, ip.Protocol(rng.Intn(256))}
	pkt := &ip.Packet{Payload: make([]byte, rng.Intn(70000))}
	pkt.Protocol, pkt.TTL = protos[rng.Intn(len(protos))], uint8(rng.Intn(256))
	var hw link.HWAddr
	var nh ip.Addr
	rng.Read(pkt.Src[:])
	rng.Read(pkt.Dst[:])
	rng.Read(hw[:])
	rng.Read(nh[:])
	names := []string{"eth0", "vif0", "r-net-12", "mh-eth", ""}
	name := names[rng.Intn(len(names))]
	header := func(kind metrics.DetailKind, via string) metrics.Detail {
		return metrics.PacketDetail(kind, uint8(pkt.Protocol), pkt.Src, pkt.Dst, pkt.TTL, pkt.Len(), via)
	}
	return []detailRow{
		{metrics.DetailText, "ip.drop", metrics.Text("ttl expired"), "ttl expired"},
		{metrics.DetailLinkDst, "link.tx", metrics.HWDetail(metrics.DetailLinkDst, hw), "dst=" + hw.String()},
		{metrics.DetailLinkSrc, "link.rx", metrics.HWDetail(metrics.DetailLinkSrc, hw), "src=" + hw.String()},
		{metrics.DetailLossToward, "link.lost", metrics.NameDetail(metrics.DetailLossToward, name), "medium loss toward " + name},
		{metrics.DetailPacket, "tunnel.decap", header(metrics.DetailPacket, ""), pkt.String()},
		{metrics.DetailPacketVia, "ip.output", header(metrics.DetailPacketVia, name), pkt.String() + " via " + name},
		{metrics.DetailAddrPair, "tunnel.encap", header(metrics.DetailAddrPair, ""), pkt.Src.String() + "->" + pkt.Dst.String()},
		{metrics.DetailNextHop, "ip.forward", metrics.AddrDetail(metrics.DetailNextHop, nh, name), "next hop " + nh.String() + " via " + name},
		{metrics.DetailNotLocal, "ip.drop", metrics.AddrDetail(metrics.DetailNotLocal, pkt.Dst, ""), "not local: dst=" + pkt.Dst.String()},
		{metrics.DetailNoRoute, "ip.drop", metrics.AddrDetail(metrics.DetailNoRoute, pkt.Dst, ""), "no route to " + pkt.Dst.String()},
		{metrics.DetailPeerRejected, "tunnel.drop", metrics.AddrDetail(metrics.DetailPeerRejected, pkt.Src, ""), "peer rejected: " + pkt.Src.String()},
		{metrics.DetailProto, "ip.deliver", metrics.ProtoDetail(metrics.DetailProto, uint8(pkt.Protocol)), pkt.Protocol.String()},
		{metrics.DetailNoHandler, "ip.drop", metrics.ProtoDetail(metrics.DetailNoHandler, uint8(pkt.Protocol)), "no handler for " + pkt.Protocol.String()},
	}
}

// TestDetailRendersAsTheCallSiteDid holds every kind's rendering to the
// string its call site built before details were typed.
func TestDetailRendersAsTheCallSiteDid(t *testing.T) {
	rng := rand.New(rand.NewSource(1996))
	for round := 0; round < 200; round++ {
		rows := detailRows(rng)
		seen := map[metrics.DetailKind]bool{}
		for _, r := range rows {
			seen[r.kind] = true
			if got := r.typed.String(); got != r.eager {
				t.Errorf("kind %d renders %q, the call site built %q", r.kind, got, r.eager)
			}
		}
		if len(seen) != metrics.NumDetailKinds || len(rows) != metrics.NumDetailKinds {
			t.Fatalf("table has %d rows over %d kinds, want one row for each of the %d kinds", len(rows), len(seen), metrics.NumDetailKinds)
		}
	}
	if got := (metrics.Detail{}).String(); got != "" {
		t.Errorf("zero Detail renders %q, want empty", got)
	}
}

// TestProtoDetailMatchesIP pins the protocol names the packet log repeats
// (it cannot import ip) to ip.Protocol.String, for every number.
func TestProtoDetailMatchesIP(t *testing.T) {
	for p := 0; p < 256; p++ {
		if got, want := metrics.ProtoDetail(metrics.DetailProto, uint8(p)).String(), ip.Protocol(p).String(); got != want {
			t.Errorf("protocol %d renders %q, ip.Protocol.String gives %q", p, got, want)
		}
	}
}

// TestTypedLogMatchesEagerLog feeds one log operands and a reference log
// the eagerly built strings, through a ring that wraps many times, and
// requires every export to agree.
func TestTypedLogMatchesEagerLog(t *testing.T) {
	loop := sim.New(1)
	typed, eager := metrics.NewPacketLog(loop, 64), metrics.NewPacketLog(loop, 64)
	rng := rand.New(rand.NewSource(2026))
	nodes := []string{"mh", "router", "ha", "ch"}
	const packets = 12
	compare := func(when string) {
		t.Helper()
		if typed.Len() != eager.Len() || typed.Evicted() != eager.Evicted() {
			t.Fatalf("%s: typed log has %d events, %d evicted; eager log %d, %d", when, typed.Len(), typed.Evicted(), eager.Len(), eager.Evicted())
		}
		if got, want := typed.Events(), eager.Events(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Events differ:\ntyped %+v\neager %+v", when, got, want)
		}
		for pkt := uint64(0); pkt <= packets; pkt++ {
			if got, want := typed.Timeline(pkt), eager.Timeline(pkt); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Timeline(%d) differs:\ntyped %+v\neager %+v", when, pkt, got, want)
			}
		}
		var a, b bytes.Buffer
		if err := typed.WriteJSONL(&a); err != nil {
			t.Fatal(err)
		}
		if err := eager.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%s: JSONL differs:\ntyped %s\neager %s", when, a.Bytes(), b.Bytes())
		}
	}
	feed := func(n int) {
		for i := 0; i < n; i++ {
			rows := detailRows(rng)
			r := rows[rng.Intn(len(rows))]
			pkt, node := uint64(rng.Intn(packets+1)), nodes[rng.Intn(len(nodes))] // pkt 0 must be ignored by both
			loop.Schedule(time.Duration(i)*time.Microsecond, func() {
				typed.RecordDetail(pkt, node, r.point, r.typed)
				eager.Record(pkt, node, r.point, r.eager)
			})
		}
		loop.Run()
	}
	feed(40)
	compare("before the ring is full")
	feed(1000)
	if typed.Evicted() == 0 {
		t.Fatal("ring did not wrap")
	}
	compare("after wrapping")
	typed, eager = metrics.NewPacketLog(loop, 64), metrics.NewPacketLog(loop, 64)
	feed(100)
	compare("in fresh logs after a second wrap")
}
