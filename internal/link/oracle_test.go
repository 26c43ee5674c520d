package link

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"mosquitonet/internal/metrics"
	"mosquitonet/internal/sim"
)

// The reference link layer: every frame is handed to every device its
// snapshot holds, one counter bump per visit — what Network.transmit did
// before unicast frames learnt to skip the walk and broadcasts to skip the
// devices that are down. The oracle test drives it and the real thing with
// one schedule and demands they never differ.

type refNet struct {
	loop         *sim.Loop
	medium       Medium
	devices      []*refDev
	stats        NetworkStats
	busyUntil    sim.Time
	lastDelivery sim.Time
	// members counts membership changes; fastWant counts the lossless
	// frames that landed with no change since launch, which the real
	// network must land as fast flights.
	members  uint64
	fastWant uint64
	// logged mirrors the real loop's packet log; downSkips counts the fast
	// broadcasts that reached a down device with no row to log, whose drops
	// the real network settles arithmetically.
	logged    bool
	downSkips uint64
}

type refDev struct {
	name          string
	hw            HWAddr
	loop          *sim.Loop
	net           *refNet
	state         State
	upGen         uint32
	upWaiting     []func() // every bringUp since the device was last down or up
	delay, jitter time.Duration
	recv          func(*Frame)
	stats         DeviceStats
	downOnRx      int // traced frames addressed to a down device
}

func (n *refNet) transmit(from *refDev, f *Frame) {
	n.stats.Transmitted++
	start := n.loop.Now()
	if n.busyUntil > start {
		start = n.busyUntil
	}
	txEnd := start.Add(n.medium.serializationDelay(f.Len()))
	n.busyUntil = txEnd
	arrival := txEnd.Add(n.loop.Jitter(n.medium.Latency, n.medium.LatencyJitter))
	if arrival < n.lastDelivery {
		arrival = n.lastDelivery
	}
	n.lastDelivery = arrival
	fast, members := n.medium.LossProb == 0 && len(n.devices) > 1, n.members
	var rx []*refDev
	for _, d := range n.devices {
		if d == from {
			continue
		}
		if n.medium.LossProb > 0 && n.loop.Rand().Float64() < n.medium.LossProb {
			n.stats.LostMedium++
			continue
		}
		rx = append(rx, d)
	}
	if rx == nil {
		return
	}
	fr := *f
	fr.Payload = append([]byte(nil), f.Payload...)
	n.loop.At(arrival, func() {
		fast := fast && members == n.members
		if fast {
			n.fastWant++
		}
		skipped := false
		for _, d := range rx {
			n.stats.Delivered++
			skipped = skipped || d.state != StateUp
			d.deliver(&fr)
		}
		if fast && skipped && fr.Dst.IsBroadcast() && (fr.Trace == 0 || !n.logged) {
			n.downSkips++
		}
	})
}

func (d *refDev) deliver(f *Frame) {
	accept := f.Dst.IsBroadcast() || f.Dst == d.hw
	if d.state != StateUp {
		d.stats.DroppedDown++
		if f.Trace != 0 && accept {
			d.downOnRx++
		}
		return
	}
	if !accept {
		d.stats.DroppedFilter++
		return
	}
	d.stats.Received++
	if d.recv != nil {
		d.recv(f)
	}
}

func (d *refDev) send(f *Frame) error {
	f.Src = d.hw
	switch {
	case d.state != StateUp:
		d.stats.DroppedDown++
		return ErrDeviceDown
	case d.net == nil:
		d.stats.DroppedNoNet++
		return ErrNoNetwork
	case len(f.Payload) > d.net.medium.MTU:
		d.stats.DroppedMTU++
		return ErrFrameTooBig
	}
	d.stats.Sent++
	d.net.transmit(d, f)
	return nil
}

func (d *refDev) attach(n *refNet) {
	d.detach()
	d.net = n
	n.devices = append(n.devices, d)
	n.members++
}

func (d *refDev) detach() {
	if d.net == nil {
		return
	}
	for i, x := range d.net.devices {
		if x == d {
			d.net.devices = append(d.net.devices[:i:i], d.net.devices[i+1:]...)
			break
		}
	}
	d.net.members++
	d.net = nil
}

func (d *refDev) bringUp(done func()) {
	if d.state == StateUp {
		done()
		return
	}
	d.state = StateBringingUp
	gen := d.upGen
	d.upWaiting = append(d.upWaiting, done)
	d.loop.Schedule(d.loop.Jitter(d.delay, d.jitter), func() {
		if d.state != StateBringingUp || d.upGen != gen {
			return
		}
		d.state = StateUp
		waiting := d.upWaiting
		d.upWaiting = nil
		for _, done := range waiting {
			done()
		}
	})
}

func (d *refDev) bringDown() {
	if d.state == StateDown {
		return
	}
	d.upGen++
	d.upWaiting = nil
	d.state = StateDown
}

// pair is the same world built twice, on two loops with one seed: the real
// link layer and the reference. Every operation is applied to both.
type pair struct {
	t        *testing.T
	loop     *sim.Loop
	refLoop  *sim.Loop
	nets     []*Network
	refNets  []*refNet
	devs     []*Device
	refDevs  []*refDev
	log      []string // receive and bring-up order, real side
	refLog   []string
	lastStep string
	rewalked int // fast flights a callback turned back into a walk mid-landing
	// bcastWalked counts receives off a broadcast landing by its implicit
	// snapshot, bcastRewalked the callbacks that ended such a walk early,
	// bcastSkipping the receives off one that skipped a down device.
	bcastWalked, bcastRewalked, bcastSkipping int
	// upUnreached and downReached count the broadcast receivers that brought
	// up a down device the walk had yet to reach, or took down one it had
	// passed.
	upUnreached, downReached int
}

// Receiver scripts: the first payload byte picks what a receiver does to the
// device the second byte names, synchronously, inside the delivery callback.
const (
	actNone = iota
	actDown
	actUp
	actDetach
	actAttachHere
	actReply
	actStats
	actUpNext   // bring up the nearest down device attached after the receiver
	actDownPrev // take down the nearest up device attached before it
	numActs
)

func newPair(t *testing.T, seed int64, packetLog, registry bool) *pair {
	p := &pair{t: t, loop: sim.New(seed), refLoop: sim.New(seed)}
	if packetLog {
		metrics.TracePackets(p.loop, 1<<20) // never evicts: the rows are counted at the end
	}
	if registry {
		metrics.Enable(p.loop)
	}
	for i := 0; i < 3; i++ {
		m := Ethernet()
		p.nets = append(p.nets, NewNetwork(p.loop, fmt.Sprintf("n%d", i), m))
		p.refNets = append(p.refNets, &refNet{loop: p.refLoop, medium: m, logged: packetLog})
	}
	for i := 0; i < 9; i++ {
		// A third of the devices come up instantly, the rest take long enough
		// for frames to arrive, and for a down/up flap to land, mid-bring-up.
		delay, jitter := time.Duration(i%3)*200*time.Microsecond, time.Duration(i%3)*50*time.Microsecond
		d := NewDevice(p.loop, fmt.Sprintf("d%d", i), delay, jitter)
		r := &refDev{name: d.Name(), hw: d.HW(), loop: p.refLoop, delay: delay, jitter: jitter}
		d.SetReceiver(func(f *Frame) {
			p.log = append(p.log, fmt.Sprintf("%v %s<-%v %x", p.loop.Now(), d.Name(), f.Src, f.Payload))
			var landing *flight
			n := d.Network()
			if n != nil {
				landing = n.landing
			}
			if landing != nil && landing.all && skipsDown(n, landing) {
				p.bcastSkipping++
			}
			if j := p.act(false, i, f); j >= 0 && landing != nil && landing.all {
				if f.Payload[0]%numActs == actUpNext {
					p.upUnreached++
				} else {
					p.downReached++
				}
			}
			if landing != nil && landing.all {
				p.bcastWalked++
			}
			if landing != nil && n.landing == nil {
				p.rewalked++
				if landing.all {
					p.bcastRewalked++
				}
			}
		})
		r.recv = func(f *Frame) {
			p.refLog = append(p.refLog, fmt.Sprintf("%v %s<-%v %x", p.refLoop.Now(), r.name, f.Src, f.Payload))
			p.act(true, i, f)
		}
		p.devs = append(p.devs, d)
		p.refDevs = append(p.refDevs, r)
	}
	return p
}

// act runs the script a received frame carries, on one side of the pair. It
// returns the neighbour an actUpNext or actDownPrev script acted on, or -1.
func (p *pair) act(ref bool, self int, f *Frame) int {
	if len(f.Payload) < 2 {
		return -1
	}
	target := int(f.Payload[1]) % len(p.devs)
	switch f.Payload[0] % numActs {
	case actDown:
		p.down(ref, target)
	case actUp:
		p.up(ref, target)
	case actDetach:
		p.detach(ref, target)
	case actAttachHere:
		if ref {
			if n := p.refDevs[self].net; n != nil {
				p.refDevs[target].attach(n)
			}
		} else if n := p.devs[self].Network(); n != nil {
			p.devs[target].Attach(n)
		}
		if len(f.Payload) > 2 && f.Payload[2]%2 == 0 {
			p.down(ref, target) // a newcomer settling under a landing flight it is no part of
		}
	case actReply:
		p.send(ref, self, f.Src, []byte{actNone, 0}, f.Trace)
	case actStats:
		if !ref {
			p.devs[target].Stats()
		}
	case actUpNext:
		if j := p.neighbour(ref, self, true, false); j >= 0 {
			p.up(ref, j)
			return j
		}
	case actDownPrev:
		if j := p.neighbour(ref, self, false, true); j >= 0 {
			p.down(ref, j)
			return j
		}
	}
	return -1
}

// skipsDown reports whether the landing broadcast fl walks past a down
// device that is not its sender.
func skipsDown(n *Network, fl *flight) bool {
	if n.asleep == 0 || fl.frame.Trace != 0 && n.pktlog != nil {
		return false // the full walk
	}
	for _, d := range n.devices {
		if d != fl.from && !d.IsUp() {
			return true
		}
	}
	return false
}

// neighbour returns the nearest device on self's segment attached after self
// (or before it, if !after) that is up (or not, if !up), or -1.
func (p *pair) neighbour(ref bool, self int, after, up bool) int {
	var order []int // the segment's devices in attachment order
	if ref {
		if n := p.refDevs[self].net; n != nil {
			for _, d := range n.devices {
				order = append(order, slices.Index(p.refDevs, d))
			}
		}
	} else if n := p.devs[self].Network(); n != nil {
		for _, d := range n.devices {
			order = append(order, slices.Index(p.devs, d))
		}
	}
	at := slices.Index(order, self)
	if at < 0 {
		return -1
	}
	step := 1
	if !after {
		step = -1
	}
	isUp := func(j int) bool {
		if ref {
			return p.refDevs[j].state == StateUp
		}
		return p.devs[j].IsUp()
	}
	for k := at + step; k >= 0 && k < len(order); k += step {
		if isUp(order[k]) == up {
			return order[k]
		}
	}
	return -1
}

func (p *pair) send(ref bool, from int, dst HWAddr, payload []byte, trace uint64) error {
	f := &Frame{Dst: dst, Type: EtherTypeIPv4, Payload: payload, Trace: trace}
	if ref {
		return p.refDevs[from].send(f)
	}
	return p.devs[from].Send(f)
}

func (p *pair) up(ref bool, i int) {
	if ref {
		p.refDevs[i].bringUp(func() { p.refLog = append(p.refLog, fmt.Sprintf("%v up %d", p.refLoop.Now(), i)) })
	} else {
		p.devs[i].BringUp(func() { p.log = append(p.log, fmt.Sprintf("%v up %d", p.loop.Now(), i)) })
	}
}

func (p *pair) down(ref bool, i int) {
	if ref {
		p.refDevs[i].bringDown()
	} else {
		p.devs[i].BringDown()
	}
}

func (p *pair) detach(ref bool, i int) {
	if ref {
		p.refDevs[i].detach()
	} else {
		p.devs[i].Detach()
	}
}

// both applies one operation to the real side, then to the reference.
func (p *pair) both(op func(ref bool)) {
	op(false)
	op(true)
}

// checkCheap compares everything that can be read without settling a device.
func (p *pair) checkCheap() {
	p.t.Helper()
	for i, n := range p.nets {
		if got, want := n.Stats(), p.refNets[i].stats; got != want {
			p.t.Fatalf("after %s: network %d stats = %+v, reference %+v", p.lastStep, i, got, want)
		}
	}
	for i, n := range p.nets {
		if err := awakeMismatch(n); err != nil {
			p.t.Fatalf("after %s: network %d: %v", p.lastStep, i, err)
		}
	}
	if !reflect.DeepEqual(p.log, p.refLog) {
		p.t.Fatalf("after %s: receive order differs:\n real %v\n  ref %v", p.lastStep, tail(p.log), tail(p.refLog))
	}
	if got, want := p.loop.Executed(), p.refLoop.Executed(); got != want {
		p.t.Fatalf("after %s: executed %d events, reference %d", p.lastStep, got, want)
	}
	if got, want := p.loop.QueueHighWater(), p.refLoop.QueueHighWater(); got != want {
		p.t.Fatalf("after %s: queue high water %d, reference %d", p.lastStep, got, want)
	}
	if got, want := p.loop.Now(), p.refLoop.Now(); got != want {
		p.t.Fatalf("after %s: clock %v, reference %v", p.lastStep, got, want)
	}
}

// awakeMismatch reports where n.awake does not mark exactly the attached
// devices that are up, or n.asleep does not count the others.
func awakeMismatch(n *Network) error {
	asleep := 0
	for j := 0; j < 64*len(n.awake); j++ {
		marked := n.awake[j>>6]&(1<<(j&63)) != 0
		up := j < len(n.devices) && n.devices[j].IsUp()
		if marked != up {
			return fmt.Errorf("device %d of %d marked awake: %v, up: %v", j, len(n.devices), marked, up)
		}
		if j < len(n.devices) && !up {
			asleep++
		}
	}
	if asleep != n.asleep {
		return fmt.Errorf("%d devices asleep, counted %d", asleep, n.asleep)
	}
	return nil
}

// TestAwakeFollowsAWideSegment flaps, detaches and re-attaches devices on a
// segment several bitmap words wide, so a device leaving moves the marks of
// the ones after it across word boundaries, and checks after every step that
// awake marks the up devices and a broadcast reaches exactly them.
func TestAwakeFollowsAWideSegment(t *testing.T) {
	loop := sim.New(1)
	n := NewNetwork(loop, "wide", Ethernet())
	rng := rand.New(rand.NewSource(1))
	devs := make([]*Device, 200)
	got := make([]int, len(devs))
	for i := range devs {
		i := i
		devs[i] = NewDevice(loop, fmt.Sprintf("d%d", i), 0, 0)
		devs[i].SetReceiver(func(*Frame) { got[i]++ })
		devs[i].Attach(n)
		if rng.Intn(2) == 0 {
			devs[i].BringUp(nil)
		}
	}
	loop.RunFor(0)
	for step := 0; step < 2000; step++ {
		d := devs[rng.Intn(len(devs))]
		switch rng.Intn(4) {
		case 0:
			d.BringUp(nil)
		case 1:
			d.BringDown()
		case 2:
			d.Detach()
		case 3:
			d.Attach(n)
		}
		loop.RunFor(0)
		if err := awakeMismatch(n); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if len(n.devices) == 0 || !n.devices[0].IsUp() {
			continue
		}
		from := n.devices[0]
		want := make([]int, len(devs))
		for i, d := range devs {
			want[i] = got[i]
			if d != from && d.Network() == n && d.IsUp() {
				want[i]++
			}
		}
		if err := from.Send(&Frame{Dst: BroadcastHW, Type: EtherTypeARP, Payload: []byte{1}}); err != nil {
			t.Fatal(err)
		}
		loop.RunFor(time.Millisecond)
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: broadcast reached %v, want %v", step, got, want)
		}
	}
}

func tail(s []string) []string {
	if len(s) > 4 {
		s = s[len(s)-4:]
	}
	return s
}

// checkDevices compares every device's counters (settling all of them).
func (p *pair) checkDevices() {
	p.t.Helper()
	for i, d := range p.devs {
		if got, want := d.Stats(), p.refDevs[i].stats; got != want {
			p.t.Fatalf("after %s: %s stats = %+v, reference %+v", p.lastStep, d.Name(), got, want)
		}
		if got, want := d.State(), p.refDevs[i].state; got != want {
			p.t.Fatalf("after %s: %s is %v, reference %v", p.lastStep, d.Name(), got, want)
		}
	}
}

// checkRegistry reads the drop counters the way telemetry does, through the
// registry's collectors, without calling Stats first.
func (p *pair) checkRegistry() {
	p.t.Helper()
	reg := metrics.For(p.loop)
	if reg == nil {
		return
	}
	snap := reg.Snapshot()
	for i, d := range p.devs {
		for _, row := range []struct {
			name string
			want uint64
		}{
			{"link.device.drop_filter", p.refDevs[i].stats.DroppedFilter},
			{"link.device.drop_down", p.refDevs[i].stats.DroppedDown},
			{"link.device.rx_packets", p.refDevs[i].stats.Received},
		} {
			m := snap.Get(row.name, metrics.L("dev", d.Name()))
			if m == nil || m.Counter == nil || *m.Counter != row.want {
				p.t.Fatalf("after %s: registry %s{dev=%s} = %v, reference %d", p.lastStep, row.name, d.Name(), m, row.want)
			}
		}
	}
}

// TestFastPathMatchesWalk is the oracle for the fast flights, unicast and
// broadcast: a seeded
// random schedule of sends, membership changes, state flaps, loss bursts
// and counter reads — many of them issued from inside a
// delivery callback — applied to the real link layer and to the reference
// walk, which must agree on every counter, on the order of every receive, on
// the events executed and on the RNG, at every step.
func TestFastPathMatchesWalk(t *testing.T) {
	for _, mode := range []struct {
		name                string
		packetLog, registry bool
	}{{"plain", false, false}, {"registry", false, true}, {"packetlog", true, true}} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", mode.name, seed), func(t *testing.T) {
				runOracle(t, seed, mode.packetLog, mode.registry)
			})
		}
	}
}

func runOracle(t *testing.T, seed int64, packetLog, registry bool) {
	p := newPair(t, seed, packetLog, registry)
	rng := rand.New(rand.NewSource(seed * 7919))
	// Start from a populated world: everyone attached, most devices up.
	for i := range p.devs {
		p.both(func(ref bool) {
			if ref {
				p.refDevs[i].attach(p.refNets[i%2])
			} else {
				p.devs[i].Attach(p.nets[i%2])
			}
			if i%4 != 3 {
				p.up(ref, i)
			}
		})
	}
	trace := uint64(0)
	for step := 0; step < 4000; step++ {
		dev, other, net := rng.Intn(len(p.devs)), rng.Intn(len(p.devs)), rng.Intn(len(p.nets))
		switch op := rng.Intn(100); {
		case op < 50: // unicast: a neighbour, a stale address or the sender itself
			trace++
			payload := []byte{byte(rng.Intn(numActs)), byte(rng.Intn(256)), byte(step)}
			if rng.Intn(3) > 0 {
				payload[0] = actNone
			}
			p.lastStep = fmt.Sprintf("step %d: d%d sends %x to d%d", step, dev, payload, other)
			err := p.send(false, dev, p.devs[other].HW(), payload, trace)
			if refErr := p.send(true, dev, p.devs[other].HW(), payload, trace); refErr != err {
				t.Fatalf("%s: Send = %v, reference %v", p.lastStep, err, refErr)
			}
		case op < 58:
			// Every up device runs the script, each against the membership
			// and states the ones before it left behind. Half the broadcasts
			// are untraced, as ARP is: on a logged loop only a traced one has
			// down devices that log its loss.
			tr := uint64(0)
			if rng.Intn(2) == 0 {
				trace++
				tr = trace
			}
			payload := []byte{byte(rng.Intn(numActs)), byte(rng.Intn(256)), byte(step)}
			switch rng.Intn(6) {
			case 0, 1:
			case 2: // the walk meets a device the callbacks brought up
				payload[0] = actUpNext
			case 3: // the walk has passed a device the callbacks take down
				payload[0] = actDownPrev
			default:
				payload[0] = actNone
			}
			p.lastStep = fmt.Sprintf("step %d: d%d broadcasts %x (trace %d)", step, dev, payload, tr)
			p.both(func(ref bool) { _ = p.send(ref, dev, BroadcastHW, payload, tr) })
			// Sometimes the sender goes down or leaves while its frame is in
			// the air.
			switch rng.Intn(8) {
			case 0:
				p.lastStep += ", then goes down"
				p.both(func(ref bool) { p.down(ref, dev) })
			case 1:
				p.lastStep += ", then detaches"
				p.both(func(ref bool) { p.detach(ref, dev) })
			}
		case op < 66: // attach, which moves an attached device with frames in flight
			p.lastStep = fmt.Sprintf("step %d: d%d attaches to n%d", step, dev, net)
			p.devs[dev].Attach(p.nets[net])
			p.refDevs[dev].attach(p.refNets[net])
		case op < 70:
			p.lastStep = fmt.Sprintf("step %d: d%d detaches", step, dev)
			p.both(func(ref bool) { p.detach(ref, dev) })
		case op < 80:
			p.lastStep = fmt.Sprintf("step %d: d%d up", step, dev)
			p.both(func(ref bool) { p.up(ref, dev) })
		case op < 85:
			p.lastStep = fmt.Sprintf("step %d: d%d down", step, dev)
			p.both(func(ref bool) { p.down(ref, dev) })
		case op < 91:
			// Mostly lossless: one lossy spell keeps a whole segment on the
			// walk.
			prob := 0.0
			if rng.Intn(6) == 0 {
				prob = 0.3
			}
			p.lastStep = fmt.Sprintf("step %d: n%d loss %.1f", step, net, prob)
			p.nets[net].SetLossProb(prob)
			p.refNets[net].medium.LossProb = prob
		case op < 96:
			p.lastStep = fmt.Sprintf("step %d: read d%d stats", step, dev)
			if got, want := p.devs[dev].Stats(), p.refDevs[dev].stats; got != want {
				t.Fatalf("%s: %+v, reference %+v", p.lastStep, got, want)
			}
		case op < 97:
			p.lastStep = fmt.Sprintf("step %d: registry snapshot", step)
			p.checkRegistry()
		default:
			p.lastStep = fmt.Sprintf("step %d: idle", step)
		}
		// Let some of what is in the air land; often nothing, so that sends
		// pile up behind one another and behind membership changes.
		if rng.Intn(3) == 0 {
			d := time.Duration(rng.Intn(400)) * time.Microsecond
			p.loop.RunFor(d)
			p.refLoop.RunFor(d)
		}
		p.checkCheap()
		if rng.Intn(8) == 0 {
			p.checkDevices()
		}
	}
	p.loop.Run()
	p.refLoop.Run()
	p.lastStep = "drain"
	p.checkCheap()
	p.checkRegistry()
	p.checkDevices()
	if got, want := p.loop.Rand().Int63(), p.refLoop.Rand().Int63(); got != want {
		t.Fatalf("RNG streams diverged: next draw %d, reference %d", got, want)
	}
	var fast, sent, lost, downSkips uint64
	for i, n := range p.nets {
		// The packet log is no reason to take a snapshot: every lossless
		// frame whose segment kept its membership until it landed flew fast.
		if want := p.refNets[i].fastWant; n.fastLanded != want {
			t.Fatalf("network %d landed %d fast flights, want %d (every lossless frame)", i, n.fastLanded, want)
		}
		downSkips += p.refNets[i].downSkips
		fast += n.fastLanded
		sent += n.stats.Transmitted
		lost += n.stats.LostMedium
	}
	if log := metrics.PacketsFor(p.loop); log != nil {
		want := 0
		for _, r := range p.refDevs {
			want += r.downOnRx
		}
		got := 0
		for _, ev := range log.Events() {
			if ev.Detail == "device down on rx" {
				got++
			}
		}
		if got != want || log.Evicted() != 0 {
			t.Fatalf("packet log holds %d \"device down on rx\" rows (%d evicted), reference dropped %d", got, log.Evicted(), want)
		}
	}
	if p.bcastWalked == 0 || p.bcastRewalked == 0 || p.bcastSkipping == 0 || downSkips == 0 || p.upUnreached == 0 || p.downReached == 0 {
		t.Fatalf("schedule too tame to mean anything: %d receives off a walked broadcast (%d off one that skipped a down device), %d walks ended by a callback, "+
			"%d broadcasts whose down receivers were settled arithmetically, %d unreached devices brought up and %d reached ones taken down mid-walk",
			p.bcastWalked, p.bcastSkipping, p.bcastRewalked, downSkips, p.upUnreached, p.downReached)
	}
	if fast < sent/4 || lost == 0 || p.rewalked == 0 {
		t.Fatalf("schedule too tame to mean anything: %d of %d frames flew fast, %d medium losses, %d re-walked mid-landing", fast, sent, lost, p.rewalked)
	}
}
