package stack

import (
	"testing"
	"time"

	"mosquitonet/internal/bufpool"
	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/sim"
)

// trunkPair is two hosts on two loops of a shard set, joined by a
// point-to-point trunk whose frames cross between the loops the way the
// scale fleet's do: a frame sent on one loop lands, payload and all, on the
// other.
type trunkPair struct {
	ss           *sim.ShardSet
	loops        [2]*sim.Loop
	hosts        [2]*Host
	addrs        [2]ip.Addr
	delivered    [2]int
	payloadBytes int
}

func newTrunkPair(t *testing.T, workers int) *trunkPair {
	t.Helper()
	p := &trunkPair{addrs: [2]ip.Addr{ip.MustParseAddr("10.9.0.1"), ip.MustParseAddr("10.9.0.2")}}
	medium := link.Backbone()
	p.loops = [2]*sim.Loop{sim.New(sim.ShardSeed(7, 0)), sim.New(sim.ShardSeed(7, 1))}
	p.ss = sim.NewShardSet(p.loops[:], medium.MinLatency())
	p.ss.SetWorkers(workers)
	var nets [2]*link.Network
	for i := range nets {
		nets[i] = link.NewNetwork(p.loops[i], "trunk", medium)
	}
	for i := range nets {
		from, to := i, 1-i
		nets[from].SetHandoff(func(f *link.Frame, at sim.Time) {
			p.ss.Post(from, to, at, func() { nets[to].DeliverLocal(f) })
		})
	}
	pfx := ip.MustParsePrefix("10.9.0.0/24")
	for i := range p.hosts {
		h := NewHost(p.loops[i], "h", Config{})
		d := link.NewDevice(p.loops[i], "tr", 0, 0)
		d.Attach(nets[i])
		d.BringUp(nil)
		h.ConnectRoute(h.AddIface("tr0", d, p.addrs[i], pfx, IfaceOpts{PointToPoint: true}))
		i := i
		h.RegisterHandler(ip.ProtoUDP, func(*Iface, *ip.Packet) { p.delivered[i]++ })
		p.hosts[i] = h
	}
	p.ss.RunFor(0)
	return p
}

// send schedules n datagrams from host i to the other host, one every
// 100µs, each carrying size bytes.
func (p *trunkPair) send(t *testing.T, i, n, size int) {
	body := make([]byte, size)
	h, dst := p.hosts[i], p.addrs[1-i]
	for k := 0; k < n; k++ {
		p.loops[i].Schedule(time.Duration(k)*100*time.Microsecond, func() {
			pkt := ip.NewUDPPacket(h.Packets(), p.addrs[i], dst, ip.UDPHeader{SrcPort: 9, DstPort: 9}, body)
			if err := h.Output(pkt); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestCrossWorkerTrunkBuffersBalance: two loops on two workers exchange
// datagrams both ways over a trunk at the same time, each loop drawing
// packets and wire buffers from its own lists while the other lands frames
// on its lists. Under -race that is the check that no list is touched from
// two goroutines; at quiesce every pooled packet and buffer is back, summed
// over the two loops.
func TestCrossWorkerTrunkBuffersBalance(t *testing.T) {
	p := newTrunkPair(t, 2)
	const n = 400
	p.send(t, 0, n, 64)
	p.send(t, 1, n, 1200)
	p.ss.RunFor(time.Second)
	if p.delivered != [2]int{n, n} {
		t.Fatalf("delivered %v, want %d each way", p.delivered, n)
	}
	if pkts, bufs := outstanding(p.loops[:]...); pkts != 0 || bufs != 0 {
		t.Fatalf("at quiesce %+d pooled packets and %+d wire buffers are out, want none", pkts, bufs)
	}
}

// TestCrossWorkerOneWayListsCapped: a flow in one direction only lands every
// wire buffer on the receiving loop, which never sends one back. Its list of
// that class fills to the cap and stops there; the rest go to the garbage
// collector, and the pools still balance: the sending loop's buffer ledger
// is short by exactly what the receiving loop's is over.
func TestCrossWorkerOneWayListsCapped(t *testing.T) {
	p := newTrunkPair(t, 2)
	const size = 1200
	c := bufpool.Class(ip.HeaderLen + ip.UDPHeaderLen + size)
	n := bufpool.MaxHeld(c) + 100
	p.send(t, 0, n, size)
	p.ss.RunFor(time.Duration(n)*100*time.Microsecond + time.Second)
	if p.delivered != [2]int{0, n} {
		t.Fatalf("delivered %v, want %d one way", p.delivered, n)
	}
	rx, tx := bufpool.For(p.loops[1]), bufpool.For(p.loops[0])
	if rx.Held(c) != bufpool.MaxHeld(c) {
		t.Errorf("the receiving loop holds %d class-%d buffers after %d landed, want the cap %d", rx.Held(c), c, n, bufpool.MaxHeld(c))
	}
	if tx.Held(c) != 0 {
		t.Errorf("the sending loop holds %d class-%d buffers; every one it sent landed on the other loop", tx.Held(c), c)
	}
	if txOut, rxOut := tx.Ledger().InUse(), rx.Ledger().InUse(); txOut != int64(n) || rxOut != -txOut {
		t.Errorf("the sending loop's lists have %+d buffers out and the receiving loop's %+d; want %+d and %+d", txOut, rxOut, n, -n)
	}
	if pkts, bufs := outstanding(p.loops[:]...); pkts != 0 || bufs != 0 {
		t.Fatalf("at quiesce %+d pooled packets and %+d wire buffers are out, want none", pkts, bufs)
	}
}
