package link

import (
	"testing"
	"time"

	"mosquitonet/internal/sim"
)

// buildTrunk wires two single-device stub networks on separate loops into
// a full-duplex cross-shard trunk over the given shard set.
func buildTrunk(ss *sim.ShardSet, shardA, shardB int, netA, netB *Network) {
	netA.SetHandoff(func(f *Frame, arrival sim.Time) {
		ss.Post(shardA, shardB, arrival, func() { netB.DeliverLocal(f) })
	})
	netB.SetHandoff(func(f *Frame, arrival sim.Time) {
		ss.Post(shardB, shardA, arrival, func() { netA.DeliverLocal(f) })
	})
}

func TestTrunkCrossShardDelivery(t *testing.T) {
	loopA := sim.New(sim.ShardSeed(1, 0))
	loopB := sim.New(sim.ShardSeed(1, 1))
	medium := Backbone()
	ss := sim.NewShardSet([]*sim.Loop{loopA, loopB}, medium.MinLatency())

	netA := NewNetwork(loopA, "trunk-a", medium)
	netB := NewNetwork(loopB, "trunk-b", medium)
	buildTrunk(ss, 0, 1, netA, netB)

	dA := NewDevice(loopA, "tr0", 0, 0)
	dA.Attach(netA)
	dA.BringUp(nil)
	dB := NewDevice(loopB, "tr1", 0, 0)
	dB.Attach(netB)
	dB.BringUp(nil)

	var got []string
	var gotAt []sim.Time
	dB.SetReceiver(func(f *Frame) {
		got = append(got, string(f.Payload))
		gotAt = append(gotAt, loopB.Now())
	})
	var echoed []string
	dA.SetReceiver(func(f *Frame) { echoed = append(echoed, string(f.Payload)) })

	loopA.Schedule(0, func() {
		dA.Send(&Frame{Dst: BroadcastHW, Type: EtherTypeIPv4, Payload: []byte("ping-1")})
	})
	loopA.Schedule(500*time.Microsecond, func() {
		dA.Send(&Frame{Dst: BroadcastHW, Type: EtherTypeIPv4, Payload: []byte("ping-2")})
	})
	// The far side answers from its own shard once the first ping lands.
	loopB.Schedule(3*time.Millisecond, func() {
		dB.Send(&Frame{Dst: BroadcastHW, Type: EtherTypeIPv4, Payload: []byte("pong")})
	})

	ss.RunFor(20 * time.Millisecond)

	if len(got) != 2 || got[0] != "ping-1" || got[1] != "ping-2" {
		t.Fatalf("far side received %q, want [ping-1 ping-2]", got)
	}
	if len(echoed) != 1 || echoed[0] != "pong" {
		t.Fatalf("near side received %q, want [pong]", echoed)
	}
	// The arrival delta must respect the medium's minimum latency — that
	// is the whole basis of the lookahead.
	if d := gotAt[0].Sub(sim.Time(0)); d < medium.MinLatency() {
		t.Fatalf("first ping arrived after %v, below MinLatency %v", d, medium.MinLatency())
	}
	if netA.Stats().Transmitted != 2 || netB.Stats().Delivered != 2 {
		t.Fatalf("trunk stats: a.tx=%d b.rx=%d, want 2/2", netA.Stats().Transmitted, netB.Stats().Delivered)
	}
	if ss.CrossDelivered() != 3 {
		t.Fatalf("cross-shard deliveries = %d, want 3", ss.CrossDelivered())
	}
}

func TestMediumMinLatency(t *testing.T) {
	for _, m := range []Medium{Ethernet(), Radio(), Serial(), Backbone()} {
		if m.MinLatency() <= 0 {
			t.Fatalf("%s MinLatency %v, want > 0", m.Name, m.MinLatency())
		}
		if m.MinLatency() > m.Latency {
			t.Fatalf("%s MinLatency %v exceeds Latency %v", m.Name, m.MinLatency(), m.Latency)
		}
	}
}
