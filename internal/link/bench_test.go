package link

import (
	"fmt"
	"testing"
	"time"

	"mosquitonet/internal/sim"
)

// benchSegment builds one lossless Ethernet with n attached devices. From the
// third on, only every upEvery-th one is brought up and the rest are left
// down, as a fleet's resident hosts are; the sender and the receiver (devices
// 0 and 1) are up.
func benchSegment(n, upEvery int) (*sim.Loop, []*Device) {
	loop := sim.New(1)
	net := NewNetwork(loop, "bench", Ethernet())
	devs := make([]*Device, n)
	for i := range devs {
		devs[i] = NewDevice(loop, fmt.Sprintf("d%d", i), 0, 0)
		devs[i].Attach(net)
		devs[i].SetReceiver(func(*Frame) {})
		if i < 2 || i%upEvery == 0 {
			devs[i].BringUp(nil)
		}
	}
	loop.RunFor(0)
	return loop, devs
}

// benchFlights sends b.N frames to dst, landing each before the next.
func benchFlights(b *testing.B, loop *sim.Loop, devs []*Device, dst HWAddr) {
	f := &Frame{Dst: dst, Type: EtherTypeIPv4, Payload: make([]byte, 60)}
	flight := func() {
		if err := devs[0].Send(f); err != nil {
			b.Fatal(err)
		}
		loop.RunFor(time.Millisecond)
	}
	flight() // warm the flight record, the event free list and the payload pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flight()
	}
	b.StopTimer()
	if got, want := devs[1].Stats().Received, uint64(b.N+1); got != want {
		b.Fatalf("receiver got %d frames, want %d", got, want)
	}
}

// BenchmarkUnicastFlight is one unicast frame across a segment of 2, 128 and
// 1,250 attached devices: the cost must not grow with the segment, and a
// steady-state flight must not allocate.
func BenchmarkUnicastFlight(b *testing.B) {
	for _, n := range []int{2, 128, 1250} {
		b.Run(fmt.Sprintf("devices=%d", n), func(b *testing.B) {
			loop, devs := benchSegment(n, 2)
			benchFlights(b, loop, devs, devs[1].HW())
			if n > 2 {
				// A frame counts only at its addressee: bystanders, up or down,
				// are never touched.
				for _, d := range []*Device{devs[2], devs[3]} {
					if s := d.Stats(); s != (DeviceStats{}) {
						b.Fatalf("%s (%v) counted %+v of %d flights to %s", d.Name(), d.State(), s, b.N+1, devs[1].Name())
					}
				}
			}
		})
	}
}

// BenchmarkBroadcastFlight is the one-to-all case across 1,250 attached
// devices, half of them up or, as on a fleet's resident segments, a tenth:
// the walk visits the devices that are up, so its cost is per up receiver.
func BenchmarkBroadcastFlight(b *testing.B) {
	for _, upEvery := range []int{2, 10} {
		b.Run(fmt.Sprintf("devices=1250/up=1in%d", upEvery), func(b *testing.B) {
			loop, devs := benchSegment(1250, upEvery)
			benchFlights(b, loop, devs, BroadcastHW)
			// A broadcast missed while down is nobody's loss.
			if s := devs[3].Stats(); s != (DeviceStats{}) {
				b.Fatalf("%s (down) counted %+v of %d broadcasts", devs[3].Name(), s, b.N+1)
			}
		})
	}
}
