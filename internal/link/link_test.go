package link

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mosquitonet/internal/bufpool"
	"mosquitonet/internal/sim"
)

// upDevice creates a device on n that is already up, with instant bring-up.
func upDevice(t *testing.T, loop *sim.Loop, n *Network, name string) *Device {
	t.Helper()
	d := NewDevice(loop, name, 0, 0)
	d.Attach(n)
	d.BringUp(nil)
	loop.RunFor(0)
	if !d.IsUp() {
		t.Fatalf("device %s not up", name)
	}
	return d
}

func TestHWAddrString(t *testing.T) {
	a := HWAddr{0x02, 0x4d, 0x4e, 0x00, 0x00, 0x01}
	if a.String() != "02:4d:4e:00:00:01" {
		t.Fatalf("String = %q", a.String())
	}
	if !BroadcastHW.IsBroadcast() || a.IsBroadcast() {
		t.Fatal("IsBroadcast wrong")
	}
	// The fmt form String had stays here as the oracle for the table one.
	rng := rand.New(rand.NewSource(1996))
	for i := 0; i < 1000; i++ {
		rng.Read(a[:])
		want := fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", a[0], a[1], a[2], a[3], a[4], a[5])
		if got := a.String(); got != want {
			t.Fatalf("String = %q, want %q", got, want)
		}
	}
}

// TestNextHWAddrUnique: a loop's devices get distinct hardware addresses,
// numbered from 1 on every loop, whatever other loops the process built.
func TestNextHWAddrUnique(t *testing.T) {
	loop := sim.New(1)
	seen := map[HWAddr]bool{}
	for i := 0; i < 1000; i++ {
		a := nextHWAddr(loop)
		if seen[a] {
			t.Fatalf("duplicate hardware address %v", a)
		}
		seen[a] = true
	}
	want := HWAddr{0x02, 0x4d, 0x4e, 0, 0, 1}
	if a := NewDevice(sim.New(1), "eth0", 0, 0).HW(); a != want {
		t.Fatalf("a fresh loop's first device is %v, want %v", a, want)
	}
}

// TestAttachRefusesAnotherLoopsNetwork: hardware addresses are numbered per
// loop, so a device of one loop on another loop's network could share an
// address with a device there; Attach refuses it.
func TestAttachRefusesAnotherLoopsNetwork(t *testing.T) {
	n := NewNetwork(sim.New(1), "net", Ethernet())
	d := NewDevice(sim.New(2), "eth0", 0, 0)
	defer func() {
		if recover() == nil || d.Network() != nil {
			t.Error("a device attached to another loop's network")
		}
	}()
	d.Attach(n)
}

func TestUnicastDelivery(t *testing.T) {
	loop := sim.New(1)
	n := NewNetwork(loop, "test", Ethernet())
	a := upDevice(t, loop, n, "a")
	b := upDevice(t, loop, n, "b")
	c := upDevice(t, loop, n, "c")

	var got []byte
	b.SetReceiver(func(f *Frame) { got = f.Payload })
	var cGot bool
	c.SetReceiver(func(f *Frame) { cGot = true })

	if err := a.Send(&Frame{Dst: b.HW(), Type: EtherTypeIPv4, Payload: []byte("hi")}); err != nil {
		t.Fatal(err)
	}
	loop.Run()
	if string(got) != "hi" {
		t.Fatalf("b received %q", got)
	}
	if cGot {
		t.Fatal("c received a unicast frame not addressed to it")
	}
	if c.Stats().DroppedFilter != 1 {
		t.Fatalf("c filter drops = %d, want 1", c.Stats().DroppedFilter)
	}
}

func TestBroadcastDelivery(t *testing.T) {
	loop := sim.New(1)
	n := NewNetwork(loop, "test", Ethernet())
	a := upDevice(t, loop, n, "a")
	b := upDevice(t, loop, n, "b")
	c := upDevice(t, loop, n, "c")

	count := 0
	b.SetReceiver(func(*Frame) { count++ })
	c.SetReceiver(func(*Frame) { count++ })
	a.Send(&Frame{Dst: BroadcastHW, Type: EtherTypeARP, Payload: []byte("who-has")})
	loop.Run()
	if count != 2 {
		t.Fatalf("broadcast reached %d devices, want 2", count)
	}
	if a.Stats().Received != 0 {
		t.Fatal("sender received its own frame")
	}
}

func TestSendSetsSourceAddress(t *testing.T) {
	loop := sim.New(1)
	n := NewNetwork(loop, "test", Ethernet())
	a := upDevice(t, loop, n, "a")
	b := upDevice(t, loop, n, "b")
	var src HWAddr
	b.SetReceiver(func(f *Frame) { src = f.Src })
	a.Send(&Frame{Src: HWAddr{9, 9, 9, 9, 9, 9}, Dst: b.HW(), Payload: []byte("x")})
	loop.Run()
	if src != a.HW() {
		t.Fatalf("frame source %v, want %v", src, a.HW())
	}
}

func TestSendWhileDown(t *testing.T) {
	loop := sim.New(1)
	n := NewNetwork(loop, "test", Ethernet())
	d := NewDevice(loop, "d", 0, 0)
	d.Attach(n)
	if err := d.Send(&Frame{Dst: BroadcastHW}); err != ErrDeviceDown {
		t.Fatalf("err = %v, want ErrDeviceDown", err)
	}
	if d.Stats().DroppedDown != 1 {
		t.Fatal("drop not counted")
	}
}

func TestSendDetached(t *testing.T) {
	loop := sim.New(1)
	d := NewDevice(loop, "d", 0, 0)
	d.BringUp(nil)
	loop.RunFor(0)
	if err := d.Send(&Frame{Dst: BroadcastHW}); err != ErrNoNetwork {
		t.Fatalf("err = %v, want ErrNoNetwork", err)
	}
}

func TestMTUEnforced(t *testing.T) {
	loop := sim.New(1)
	n := NewNetwork(loop, "test", Ethernet())
	d := upDevice(t, loop, n, "d")
	if err := d.Send(&Frame{Dst: BroadcastHW, Payload: make([]byte, 1501)}); err != ErrFrameTooBig {
		t.Fatalf("err = %v, want ErrFrameTooBig", err)
	}
	if err := d.Send(&Frame{Dst: BroadcastHW, Payload: make([]byte, 1500)}); err != nil {
		t.Fatalf("MTU-sized frame rejected: %v", err)
	}
}

func TestBringUpDelay(t *testing.T) {
	loop := sim.New(1)
	n := NewNetwork(loop, "test", Ethernet())
	d := NewDevice(loop, "d", 500*time.Millisecond, 0)
	d.Attach(n)
	var upAt sim.Time
	delay := d.BringUp(func() { upAt = loop.Now() })
	if delay != 500*time.Millisecond {
		t.Fatalf("charged delay %v", delay)
	}
	if d.State() != StateBringingUp {
		t.Fatalf("state %v during bring-up", d.State())
	}
	loop.RunFor(499 * time.Millisecond)
	if d.IsUp() {
		t.Fatal("device up too early")
	}
	loop.RunFor(time.Millisecond)
	if !d.IsUp() || upAt != sim.Time(500*time.Millisecond) {
		t.Fatalf("device not up at 500ms (upAt=%v)", upAt)
	}
}

func TestBringUpAlreadyUp(t *testing.T) {
	loop := sim.New(1)
	d := NewDevice(loop, "d", 500*time.Millisecond, 0)
	d.BringUp(nil)
	loop.RunFor(time.Second)
	called := false
	if delay := d.BringUp(func() { called = true }); delay != 0 {
		t.Fatalf("second BringUp charged %v", delay)
	}
	if !called {
		t.Fatal("done callback not invoked for already-up device")
	}
}

func TestBringDownCancelsBringUp(t *testing.T) {
	loop := sim.New(1)
	d := NewDevice(loop, "d", 100*time.Millisecond, 0)
	called := false
	d.BringUp(func() { called = true })
	d.BringDown()
	loop.RunFor(time.Second)
	if called || d.IsUp() {
		t.Fatal("BringDown did not cancel pending bring-up")
	}
}

// A down/up flap that lands mid-bring-up must leave the first timer inert:
// the device comes up when the second request's delay has run, and only the
// second request's callback fires.
func TestBringUpFlapIgnoresStaleTimer(t *testing.T) {
	loop := sim.New(1)
	d := NewDevice(loop, "d", 400*time.Millisecond, 0)
	var first, second []sim.Time
	d.BringUp(func() { first = append(first, loop.Now()) })
	loop.RunFor(100 * time.Millisecond)
	d.BringDown()
	d.BringUp(func() { second = append(second, loop.Now()) })
	loop.RunFor(300 * time.Millisecond) // t=400ms: the aborted bring-up's timer fires
	if d.IsUp() || len(first) != 0 {
		t.Fatalf("aborted bring-up completed at %v (up=%v, done1 fired %v)", loop.Now(), d.IsUp(), first)
	}
	loop.Run()
	if len(first) != 0 {
		t.Fatalf("done callback of the aborted bring-up fired at %v", first)
	}
	if want := sim.Time(500 * time.Millisecond); !d.IsUp() || d.UpSince() != want || len(second) != 1 || second[0] != want {
		t.Fatalf("pending bring-up: up=%v since %v, done2 fired %v; want up at %v", d.IsUp(), d.UpSince(), second, want)
	}
}

// Every BringUp not followed by a BringDown reports once, no later than its
// own timer: a second request made while the device is coming up used to
// find it up when its timer fired and return without a word.
func TestBringUpTwiceCompletesBoth(t *testing.T) {
	loop := sim.New(1)
	d := NewDevice(loop, "d", 400*time.Millisecond, 0)
	var a, b, c []sim.Time
	d.BringUp(func() { a = append(a, loop.Now()) })
	loop.RunFor(100 * time.Millisecond)
	d.BringUp(func() { b = append(b, loop.Now()) }) // its own timer is due at 500ms
	loop.RunFor(300 * time.Millisecond)
	up := sim.Time(400 * time.Millisecond)
	if !d.IsUp() || len(a) != 1 || a[0] != up || len(b) != 1 || b[0] != up {
		t.Fatalf("at %v: up=%v, first done %v, second done %v; want both at %v", loop.Now(), d.IsUp(), a, b, up)
	}
	loop.Run() // the second timer finds the device up and its request answered
	if len(a) != 1 || len(b) != 1 || d.UpSince() != up {
		t.Fatalf("after the second timer: first done %v, second done %v, up since %v", a, b, d.UpSince())
	}

	// Down between the two: neither request outlives it, the third does.
	d.BringDown()
	a, b = nil, nil
	d.BringUp(func() { a = append(a, loop.Now()) })
	d.BringUp(func() { b = append(b, loop.Now()) })
	d.BringDown()
	d.BringUp(func() { c = append(c, loop.Now()) })
	loop.Run()
	if len(a) != 0 || len(b) != 0 || len(c) != 1 || !d.IsUp() {
		t.Fatalf("after down/up: aborted dones %v %v, third %v, up=%v", a, b, c, d.IsUp())
	}
	if d.up != nil {
		t.Fatal("bring-up records left on the device with no timer out")
	}
	if l := loop.RecordLedgers(); len(l) != 1 || l[0].InUse() != 0 || l[0].Free != 3 {
		t.Fatalf("bring-up records %+v, want the three back on the loop's list", l)
	}
}

// A done that takes the device down and asks it up again starts a new
// request: it is not answered by the bring-up that is reporting, and the
// requests that were waiting beside it are aborted like any other.
func TestBringUpDoneMayFlapTheDevice(t *testing.T) {
	loop := sim.New(1)
	d := NewDevice(loop, "d", 400*time.Millisecond, 0)
	var again, other []sim.Time
	d.BringUp(func() {
		d.BringDown()
		d.BringUp(func() { again = append(again, loop.Now()) })
	})
	d.BringUp(func() { other = append(other, loop.Now()) })
	loop.Run()
	if want := sim.Time(800 * time.Millisecond); len(again) != 1 || again[0] != want || len(other) != 0 || d.UpSince() != want {
		t.Fatalf("re-request done %v, aborted neighbour %v, up since %v; want one done at %v", again, other, d.UpSince(), want)
	}
}

// Asking a device up costs no allocation once its record slice has grown:
// the timer callback is bound once and the request waits on the device.
func TestColdBringUpAllocatesNothing(t *testing.T) {
	loop := sim.New(1)
	d := NewDevice(loop, "d", time.Millisecond, 0)
	ups := 0
	done := func() { ups++ }
	cycle := func() {
		d.BringUp(done)
		loop.Run()
		d.BringDown()
	}
	cycle()
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Fatalf("a bring-up/bring-down cycle allocates %.1f objects, want 0", got)
	}
	if ups != 102 {
		t.Fatalf("done ran %d times over 102 cycles", ups)
	}
}

// A detached device must not stay reachable through the slot it vacated in
// the network's backing array, nor through the hardware-address index.
func TestDetachReleasesDevice(t *testing.T) {
	loop := sim.New(1)
	n := NewNetwork(loop, "test", Ethernet())
	devs := []*Device{upDevice(t, loop, n, "a"), upDevice(t, loop, n, "b"), upDevice(t, loop, n, "c")}
	devs[1].Detach()
	if got := n.Devices(); len(got) != 2 || got[0] != devs[0] || got[1] != devs[2] {
		t.Fatalf("Devices after detach = %v", got)
	}
	for i, d := range n.devices[:cap(n.devices)] {
		if i >= len(n.devices) && d != nil {
			t.Fatalf("backing slot %d still holds %s", i, d.Name())
		}
	}
	if _, ok := n.byHW[hwKey(devs[1].HW())]; ok || len(n.byHW) != 2 {
		t.Fatalf("hardware index after detach = %v", n.byHW)
	}
}

func TestFramesInFlightDroppedAfterBringDown(t *testing.T) {
	loop := sim.New(1)
	n := NewNetwork(loop, "test", Ethernet())
	a := upDevice(t, loop, n, "a")
	b := upDevice(t, loop, n, "b")
	got := false
	b.SetReceiver(func(*Frame) { got = true })
	a.Send(&Frame{Dst: b.HW(), Payload: []byte("x")})
	b.BringDown() // frame still in flight
	loop.Run()
	if got {
		t.Fatal("down device received a frame")
	}
	if b.Stats().DroppedDown != 1 {
		t.Fatalf("DroppedDown = %d", b.Stats().DroppedDown)
	}
}

func TestDetachStopsDelivery(t *testing.T) {
	loop := sim.New(1)
	n := NewNetwork(loop, "test", Ethernet())
	a := upDevice(t, loop, n, "a")
	b := upDevice(t, loop, n, "b")
	got := 0
	b.SetReceiver(func(*Frame) { got++ })
	a.Send(&Frame{Dst: b.HW(), Payload: []byte("1")})
	loop.Run()
	b.Detach()
	a.Send(&Frame{Dst: b.HW(), Payload: []byte("2")})
	loop.Run()
	if got != 1 {
		t.Fatalf("received %d frames, want 1", got)
	}
}

func TestReattachMovesNetworks(t *testing.T) {
	loop := sim.New(1)
	n1 := NewNetwork(loop, "n1", Ethernet())
	n2 := NewNetwork(loop, "n2", Ethernet())
	d := NewDevice(loop, "d", 0, 0)
	d.Attach(n1)
	d.Attach(n2) // implicit detach from n1
	if len(n1.Devices()) != 0 {
		t.Fatal("device still attached to old network")
	}
	if len(n2.Devices()) != 1 {
		t.Fatal("device not attached to new network")
	}
	if d.Network() != n2 {
		t.Fatal("Network() wrong")
	}
}

func TestEthernetLatency(t *testing.T) {
	loop := sim.New(1)
	n := NewNetwork(loop, "test", Ethernet())
	a := upDevice(t, loop, n, "a")
	b := upDevice(t, loop, n, "b")
	var at sim.Time
	b.SetReceiver(func(*Frame) { at = loop.Now() })
	a.Send(&Frame{Dst: b.HW(), Payload: make([]byte, 100)})
	loop.Run()
	d := at.Duration()
	if d < 100*time.Microsecond || d > 500*time.Microsecond {
		t.Fatalf("ethernet one-way delay %v outside expected envelope", d)
	}
}

// TestRadioRTTEnvelope verifies the calibrated radio medium produces the
// paper's 200-250 ms round-trip times for small packets.
func TestRadioRTTEnvelope(t *testing.T) {
	loop := sim.New(42)
	n := NewNetwork(loop, "radio", Radio())
	a := upDevice(t, loop, n, "a")
	b := upDevice(t, loop, n, "b")
	b.SetReceiver(func(f *Frame) {
		b.Send(&Frame{Dst: a.HW(), Payload: f.Payload}) // echo
	})
	for i := 0; i < 30; i++ {
		var rtt time.Duration
		start := loop.Now()
		done := false
		a.SetReceiver(func(*Frame) { rtt = loop.Now().Sub(start); done = true })
		a.Send(&Frame{Dst: b.HW(), Payload: make([]byte, 40)})
		loop.RunFor(time.Second)
		if !done {
			continue // radio loss; the medium is allowed to drop ~1%
		}
		if rtt < 190*time.Millisecond || rtt > 260*time.Millisecond {
			t.Fatalf("radio RTT %v outside the paper's 200-250ms envelope", rtt)
		}
	}
}

func TestRadioLoss(t *testing.T) {
	loop := sim.New(7)
	m := Radio()
	m.LossProb = 0.5
	n := NewNetwork(loop, "lossy", m)
	a := upDevice(t, loop, n, "a")
	b := upDevice(t, loop, n, "b")
	got := 0
	b.SetReceiver(func(*Frame) { got++ })
	const sent = 400
	for i := 0; i < sent; i++ {
		a.Send(&Frame{Dst: b.HW(), Payload: []byte("x")})
	}
	loop.Run()
	if got < sent/4 || got > sent*3/4 {
		t.Fatalf("received %d of %d at 50%% loss", got, sent)
	}
	if n.Stats().LostMedium != uint64(sent-got) {
		t.Fatalf("LostMedium = %d, want %d", n.Stats().LostMedium, sent-got)
	}
}

func TestSerializationDelay(t *testing.T) {
	m := Medium{BitRate: 8000} // 1 byte per ms
	if d := m.serializationDelay(100); d != 100*time.Millisecond {
		t.Fatalf("serialization of 100B at 8kbit = %v", d)
	}
	free := Medium{}
	if d := free.serializationDelay(1000); d != 0 {
		t.Fatalf("zero bitrate serialization = %v", d)
	}
}

// TestSendTakesPayload: Send takes the frame's pooled payload on every path.
// One pooled payload goes down each — delivered as unicast and broadcast, on
// the fast and the general path and across a trunk, or refused because the
// device is down, detached or the frame too big, or sent with nobody to
// hear it or heard by nobody — and once the loops are idle every buffer
// handed out has come back: one Put per Get, none twice, summed over the
// loops' lists (a trunk puts the buffer back on the far loop's).
func TestSendTakesPayload(t *testing.T) {
	var loops []*sim.Loop
	payload := func(loop *sim.Loop, s string) []byte {
		b := bufpool.For(loop).Get(len(s))
		copy(b, s)
		return b
	}

	loop := sim.New(1)
	loops = append(loops, loop)
	lossy := Ethernet()
	lossy.LossProb = 1e-9 // the general path, delivering
	deaf := Ethernet()
	deaf.LossProb = 1 // every receiver loses the frame
	small := Ethernet()
	small.MTU = 4
	type path struct {
		name     string
		medium   Medium
		dst      HWAddr
		prepare  func(a *Device)
		err      error
		received int
	}
	for _, p := range []path{
		{name: "unicast", medium: Ethernet(), received: 1},
		{name: "broadcast", medium: Ethernet(), dst: BroadcastHW, received: 2},
		{name: "general path", medium: lossy, received: 1},
		{name: "all lost", medium: deaf, dst: BroadcastHW},
		{name: "device down", medium: Ethernet(), prepare: (*Device).BringDown, err: ErrDeviceDown},
		{name: "no network", medium: Ethernet(), prepare: (*Device).Detach, err: ErrNoNetwork},
		{name: "over MTU", medium: small, err: ErrFrameTooBig},
		{name: "lone sender", medium: Ethernet(), dst: BroadcastHW, prepare: func(a *Device) {
			for _, d := range a.Network().Devices() {
				if d != a {
					d.Detach()
				}
			}
		}},
	} {
		n := NewNetwork(loop, p.name, p.medium)
		a := upDevice(t, loop, n, "a")
		b, c := upDevice(t, loop, n, "b"), upDevice(t, loop, n, "c")
		received := 0
		for _, d := range []*Device{b, c} {
			d.SetReceiver(func(f *Frame) {
				if string(f.Payload) != "hello" {
					t.Errorf("%s: received %q", p.name, f.Payload)
				}
				received++
			})
		}
		if p.dst == (HWAddr{}) {
			p.dst = b.HW()
		}
		if p.prepare != nil {
			p.prepare(a)
		}
		if err := a.Send(&Frame{Dst: p.dst, Type: EtherTypeIPv4, Payload: payload(loop, "hello")}); err != p.err {
			t.Errorf("%s: Send = %v, want %v", p.name, err, p.err)
		}
		loop.Run()
		if received != p.received {
			t.Errorf("%s: %d deliveries, want %d", p.name, received, p.received)
		}
	}

	// A trunk hands the payload to the far shard, which puts it back after
	// DeliverLocal, or loses it on the near side.
	for _, lost := range []bool{false, true} {
		loopA, loopB := sim.New(sim.ShardSeed(1, 0)), sim.New(sim.ShardSeed(1, 1))
		loops = append(loops, loopA, loopB)
		medium := Backbone()
		if lost {
			medium.LossProb = 1
		}
		ss := sim.NewShardSet([]*sim.Loop{loopA, loopB}, medium.MinLatency())
		netA, netB := NewNetwork(loopA, "trunk-a", medium), NewNetwork(loopB, "trunk-b", medium)
		buildTrunk(ss, 0, 1, netA, netB)
		dA, dB := upDevice(t, loopA, netA, "tr0"), upDevice(t, loopB, netB, "tr1")
		received := 0
		dB.SetReceiver(func(*Frame) { received++ })
		loopA.Schedule(0, func() {
			if err := dA.Send(&Frame{Dst: BroadcastHW, Type: EtherTypeIPv4, Payload: payload(loopA, "hello")}); err != nil {
				t.Error(err)
			}
		})
		ss.RunFor(20 * time.Millisecond)
		want := 1
		if lost {
			want = 0
		}
		if received != want {
			t.Errorf("trunk (lost %v): %d deliveries, want %d", lost, received, want)
		}
	}

	var gets, puts uint64
	for _, l := range loops {
		led := bufpool.For(l).Ledger()
		gets, puts = gets+led.Taken, puts+led.Returned
	}
	if gets != 10 || puts != gets {
		t.Errorf("%d payloads handed to Send, %d put back; want 10 and 10", gets, puts)
	}
}

func TestStateString(t *testing.T) {
	if StateDown.String() != "down" || StateBringingUp.String() != "bringing-up" || StateUp.String() != "up" {
		t.Fatal("State strings wrong")
	}
}

// Property: on a lossless medium every up device other than the sender
// receives each broadcast exactly once, regardless of how many frames are
// sent.
func TestPropertyBroadcastExactlyOnce(t *testing.T) {
	f := func(nDevices, nFrames uint8) bool {
		devs := int(nDevices%6) + 2
		frames := int(nFrames % 50)
		loop := sim.New(3)
		n := NewNetwork(loop, "p", Ethernet())
		counts := make([]int, devs)
		all := make([]*Device, devs)
		for i := 0; i < devs; i++ {
			i := i
			d := NewDevice(loop, "d", 0, 0)
			d.Attach(n)
			d.BringUp(nil)
			d.SetReceiver(func(*Frame) { counts[i]++ })
			all[i] = d
		}
		loop.RunFor(0)
		for k := 0; k < frames; k++ {
			all[0].Send(&Frame{Dst: BroadcastHW, Payload: []byte{byte(k)}})
		}
		loop.Run()
		if counts[0] != 0 {
			return false
		}
		for i := 1; i < devs; i++ {
			if counts[i] != frames {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1996))}); err != nil {
		t.Fatal(err)
	}
}
